(* The seeded request mix of the serve workloads.

   A round is a fixed multiset — [count] requests of each class, each
   drawn uniformly from that class's choices — in a seeded shuffled
   order.  Every run repeats whole rounds, so the share of each class
   (and of the requests that fail by design) is the same in every run
   and for every seed; the seed only picks which choices and in what
   order.  The generator is SplitMix64, spelled out here so a seed means
   the same inputs on every OCaml version. *)

type rng = { mutable state : int64 }

let rng seed = { state = Int64.of_int seed }

let next64 g =
  g.state <- Int64.add g.state 0x9E3779B97F4A7C15L;
  let z = g.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, n), by rejection so no index is favoured. *)
let below g n =
  if n <= 0 then invalid_arg "Mix.below";
  let bound = Int64.of_int n in
  let limit = Int64.sub Int64.max_int (Int64.rem Int64.max_int bound) in
  let rec go () =
    let v = Int64.shift_right_logical (next64 g) 1 in
    if v >= limit then go () else Int64.to_int (Int64.rem v bound)
  in
  go ()

let round ~seed (classes : (int * 'a array) list) : 'a array =
  let g = rng seed in
  let picks =
    List.concat_map
      (fun (count, choices) ->
        List.init count (fun _ -> choices.(below g (Array.length choices))))
      classes
  in
  let a = Array.of_list picks in
  for i = Array.length a - 1 downto 1 do
    let j = below g (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
