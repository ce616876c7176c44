(* Order statistics for the benchmark's timings.

   A percentile is reported only when at least [beyond] (ten) samples lie
   above it (nearest-rank definition), so a "p99" of 200 samples — which would
   be the second-largest sample, not a tail — is refused rather than
   printed. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Pct.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* 1-based nearest rank of the [num/den] quantile among [n] samples,
   in integer arithmetic so 99/100 of 1000 is exactly rank 990. *)
let rank ~num ~den n = max 1 (((num * n) + den - 1) / den)

let beyond = 10

let percentile ~num ~den xs =
  let a = sorted xs in
  let n = Array.length a in
  let r = rank ~num ~den n in
  if n = 0 || n - r < beyond then None else Some a.(r - 1)

let min_samples ~num ~den =
  (* Smallest n whose [num/den] percentile has [beyond] samples above. *)
  let rec go n = if n - rank ~num ~den n >= beyond then n else go (n + 1) in
  go 1
