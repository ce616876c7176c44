(* The benchmark's metric names and units — the same lists
   BENCHMARK.json declares, where the better directions and bounds live
   (run.py checks the names agree) — and the one-line JSON result every
   run ends with. *)

type def = { name : string; unit : string }

let d name unit = { name; unit }

(* Printed by every run with tracing off. *)
let end_to_end =
  [
    d "setup_s" "s";
    d "peak_rss_mb" "MB";
    d "report_cold_s" "s";
    d "store_mb" "MB";
    d "report_warm_p50_ms" "ms";
    d "serve_rps" "1/s";
    d "serve_p99_ms" "ms";
  ]

(* Printed by every run with tracing on. *)
let per_layer =
  [
    d "compile.s" "s";
    d "capture.s" "s";
    d "simulate.s" "s";
    d "capture_per_simulate" "ratio";
    d "capture.records" "count";
    d "capture.bytes" "B";
    d "capture.bytes_per_record" "B/record";
    d "plan.stats.s" "s";
    d "plan.sweep.s" "s";
    d "trace.open.s" "s";
    d "render.s" "s";
    d "render.tab4.s" "s";
    d "render.xtab1.s" "s";
    d "render.vtab1.s" "s";
    d "store.trace_mb" "MB";
    d "store.entry_mb" "MB";
    d "rss.plan_mb" "MB";
    d "warm.load_ms" "ms";
    d "warm.render_ms" "ms";
    d "warm.disk_hits" "count";
    d "warm.p99_ms" "ms";
    d "serve.stats_p50_ms" "ms";
    d "serve.stats_p90_ms" "ms";
    d "serve.render_p50_ms" "ms";
    d "serve.fused_p50_ms" "ms";
    d "serve.server_ms" "ms";
    d "serve.wait_ms" "ms";
    d "serve.runs" "count";
    d "serve.coalesced" "count";
    d "serve.batches" "count";
    d "traced.cold_s" "s";
    d "traced.self_s" "s";
    d "traced.cover" "ratio";
  ]

let is_name_char c =
  match c with
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

let valid_name s =
  s <> "" && String.length s <= 64 && String.for_all is_name_char s
  && (match s.[0] with '_' | '.' | '-' -> false | _ -> true)

let valid_unit s =
  s <> "" && String.length s <= 16
  && String.for_all (fun c -> is_name_char c || c = '/' || c = '%') s

(* The result line.  [values] must name every metric of [defs] exactly
   once and nothing else; a missing or non-finite value is a bug in the
   benchmark, not a measurement, so it raises. *)
let result_line ~correct ~attempted ~failed ~defs values =
  List.iter
    (fun (n, _) ->
      if not (List.exists (fun d -> d.name = n) defs) then
        failwith ("Metric: undeclared metric " ^ n))
    values;
  let metric d =
    match List.filter (fun (n, _) -> n = d.name) values with
    | [ (_, v) ] when Float.is_finite v ->
      Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" d.name v d.unit
    | [ _ ] -> failwith ("Metric: non-finite value for " ^ d.name)
    | [] -> failwith ("Metric: no value for " ^ d.name)
    | _ -> failwith ("Metric: duplicate value for " ^ d.name)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric defs))
