(* In-memory spans around the benchmark's calls into each layer.

   A span records its name, start, end and the span open when it began
   (its parent).  Nothing is written while the benchmark runs; the
   metrics are derived from the list afterwards.  A span's self time is
   its duration minus the durations of its children — children are
   strictly nested in time, so they never overlap one another. *)

type span = { id : int; name : string; parent : int; start : float; stop : float }

type t = { mutable spans : span list; mutable next : int; mutable open_ : int list }

let create () = { spans = []; next = 0; open_ = [] }

let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let start = Unix.gettimeofday () in
  let finish () =
    let stop = Unix.gettimeofday () in
    t.open_ <- List.tl t.open_;
    t.spans <- { id; name; parent; start; stop } :: t.spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let duration s = s.stop -. s.start
let spans t = List.rev t.spans
let named t name = List.filter (fun s -> s.name = name) (spans t)
let total t name = List.fold_left (fun acc s -> acc +. duration s) 0. (named t name)

let total_where t p =
  List.fold_left (fun acc s -> if p s.name then acc +. duration s else acc) 0. (spans t)

let self_time t s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc -. duration c else acc)
    (duration s) t.spans

(* Per name, in the order the first span of each name ended: the number of spans, their total
   duration and their total self time. *)
let summary t =
  let all = spans t in
  let names = List.fold_left (fun acc s -> if List.mem s.name acc then acc else s.name :: acc) [] all in
  List.rev_map
    (fun name ->
      let l = List.filter (fun s -> s.name = name) all in
      ( name,
        List.length l,
        List.fold_left (fun a s -> a +. duration s) 0. l,
        List.fold_left (fun a s -> a +. self_time t s) 0. l ))
    names
