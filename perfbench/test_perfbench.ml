(* The benchmark's own tests: the percentile rule, the seeded mix, and
   the metric names.  Run with [dune test perfbench]. *)

open Perfbench_core

let check name b = if not b then failwith ("FAIL: " ^ name)
let floats n = List.init n (fun i -> float_of_int (i + 1))

let () =
  (* A p99 needs ten samples beyond it: 1000 samples is the least. *)
  check "min_samples p99" (Pct.min_samples ~num:99 ~den:100 = 1000);
  check "p99 of 999 refused" (Pct.percentile ~num:99 ~den:100 (floats 999) = None);
  check "p99 of 1000 is rank 990"
    (Pct.percentile ~num:99 ~den:100 (floats 1000) = Some 990.);
  check "p99 of 1000 shuffled"
    (Pct.percentile ~num:99 ~den:100 (List.rev (floats 1000)) = Some 990.);
  check "p90 of 100 is rank 90" (Pct.percentile ~num:9 ~den:10 (floats 100) = Some 90.);
  check "p90 of 99 refused" (Pct.percentile ~num:9 ~den:10 (floats 99) = None);
  check "median odd" (Pct.median [ 3.; 1.; 2. ] = 2.);
  check "median even" (Pct.median [ 4.; 1.; 3.; 2. ] = 2.5)

let () =
  (* Same seed, same round; class counts exact whatever the seed. *)
  let classes = [ (5, [| "a"; "b" |]); (3, [| "c" |]); (1, [| "x"; "y"; "z" |]) ] in
  let r1 = Mix.round ~seed:7 classes and r2 = Mix.round ~seed:7 classes in
  check "mix reproduces" (r1 = r2);
  check "seeds differ" (Mix.round ~seed:8 classes <> r1);
  for seed = 0 to 50 do
    let r = Mix.round ~seed classes in
    let count p = Array.fold_left (fun n x -> if p x then n + 1 else n) 0 r in
    check "round length" (Array.length r = 9);
    check "class a/b" (count (fun x -> x = "a" || x = "b") = 5);
    check "class c" (count (( = ) "c") = 3);
    check "class xyz" (count (fun x -> x = "x" || x = "y" || x = "z") = 1)
  done;
  (* A known first draw pins the generator itself. *)
  check "splitmix64 vector"
    (Mix.next64 (Mix.rng 0) = 0xE220A8397B1DCDAFL)

let () =
  let all = Metric.end_to_end @ Metric.per_layer in
  List.iter
    (fun (d : Metric.def) ->
      check ("name " ^ d.name) (Metric.valid_name d.name);
      check ("unit " ^ d.unit) (Metric.valid_unit d.unit))
    all;
  let names = List.map (fun (d : Metric.def) -> d.name) all in
  check "names unique" (List.length (List.sort_uniq compare names) = List.length names);
  check "rejects space" (not (Metric.valid_name "a b"));
  check "rejects slash" (not (Metric.valid_name "a/b"));
  check "setup_s declared"
    (List.exists (fun (d : Metric.def) -> d.name = "setup_s") Metric.end_to_end);
  print_endline "perfbench tests: ok"
