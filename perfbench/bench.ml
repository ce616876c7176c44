(* The repository benchmark's measuring process.  See README.md for the
   workloads, the metrics and the predictions; run.py builds the program
   and calls this with the executables' paths.

     bench.exe --workload report|serve --seed N --seconds S --trace 0|1
               --report-exe PATH --d16c-exe PATH --work DIR

   Everything happens under DIR (fresh stores, the daemon's socket and
   log, the cold phase's output), which the caller removes afterwards.
   The last line of standard output is the JSON result.  The process
   also runs as its own child, with [--phase setup|cold --store DIR],
   for the report workload's set-up samples and cold phase. *)

module Plan = Repro_harness.Plan
module Pool = Repro_harness.Pool
module Runs = Repro_harness.Runs
module Diskcache = Repro_harness.Diskcache
module Experiments = Repro_harness.Experiments
module Target = Repro_core.Target
module Trace = Repro_trace.Trace
module Machine = Repro_sim.Machine
module Uconfig = Repro_uarch.Uconfig
module Proto = Repro_serve.Proto
module Digests = Repro_serve.Digests
open Perfbench_core

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Output-check failures: collected, printed on stderr, and turned into
   [correct = false] at the end. *)
let failures = ref []

let fail fmt =
  Printf.ksprintf
    (fun s ->
      if List.length !failures < 50 then prerr_endline ("perfbench: CHECK FAILED: " ^ s);
      failures := s :: !failures)
    fmt

(* Files and processes. ---------------------------------------------------- *)

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec dir_bytes p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left (fun n f -> n + dir_bytes (Filename.concat p f)) 0 (Sys.readdir p)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

let mb bytes = float_of_int bytes /. 1048576.

(* Flush a tree's written pages to disk now, so that the kernel's
   delayed write-back of a fresh store does not compete with the
   timings that follow. *)
let rec sync_tree p =
  let fsync () =
    let fd = Unix.openfile p [ Unix.O_RDONLY ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)
  in
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> sync_tree (Filename.concat p f)) (Sys.readdir p);
    fsync ()
  | { Unix.st_kind = Unix.S_REG; _ } -> fsync ()
  | _ -> ()

(* A /proc/<pid>/status field in kB (VmHWM = peak RSS, VmRSS = now). *)
let proc_kb pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith (field ^ " missing from " ^ path)
        | Some l when String.starts_with ~prefix:(field ^ ":") l ->
          Scanf.sscanf (String.sub l (String.length field + 1) (String.length l - String.length field - 1))
            " %d" Fun.id
        | Some _ -> go ()
      in
      go ())

let self_mb field = float_of_int (proc_kb "self" field) /. 1024.

(* Children get the caller's environment minus the program's own knobs,
   plus the store. *)
let child_env store =
  Array.append
    (Array.of_list
       (List.filter
          (fun kv -> not (String.starts_with ~prefix:"REPRO_" kv))
          (Array.to_list (Unix.environment ()))))
    [| "REPRO_CACHE_DIR=" ^ store |]

(* Every child still running when the process exits (normally or by an
   uncaught exception) is killed and reaped. *)
let children : int list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let st = go () in
  children := List.filter (( <> ) pid) !children;
  st

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (reap pid) with Unix.Unix_error _ -> ())
        !children)

let spawn ~env ~stdout ~stderr prog args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () -> Unix.create_process_env prog (Array.of_list (prog :: args)) env devnull stdout stderr)
  in
  children := pid :: !children;
  pid

let use_store dir =
  Diskcache.set_dir dir;
  Diskcache.set_enabled true;
  Runs.clear_memo ()

(* The inputs. ------------------------------------------------------------- *)

let seven_targets = Target.all @ [ Target.d16x; Target.d16m ]

(* The serve workload's store: small suite programs on the paper's pair,
   so set-up stays short.  Stats for the programs whose results the
   checks know by hand; fused sweeps of two of them; one render, tab4,
   which runs its own simulation and needs no other unit. *)
let serve_targets = [ Target.d16; Target.dlxe ]
let serve_stats_benches = [ "ackermann"; "queens"; "towers"; "quicksort"; "linpack"; "grep" ]
let serve_fused_benches = [ "ackermann"; "linpack" ]

let serve_plan =
  Plan.union
    (Plan.fused_specs ~benches:serve_fused_benches ~targets:serve_targets)
    (Plan.stats_specs ~benches:serve_stats_benches ~targets:serve_targets)

let serve_render_ids = [ "tab4" ]

(* The pair whose stored trace carries one flipped payload byte.  It is
   fixed, not drawn from the seed: its requests fail every time (see
   README), and a failing input must be the same in every run. *)
let corrupt_bench = "whetstone"
let corrupt_target = Target.d16

(* Requests of the closed loop.  [Fused] is the class the daemon holds
   for its batching window: the plan's grid, pipeline and fused sweeps
   (on [serve], fused sweeps only). *)
type cls = Stats | Fused | Render | Corrupt

let cls_name = function
  | Stats -> "stats"
  | Fused -> "fused"
  | Render -> "render"
  | Corrupt -> "corrupt"

type req = { cls : cls; payload : Proto.request }

(* A round of 400 requests.  No recorded daemon traffic exists to take
   the shares from, so they are chosen (README.md gives the trials):
   30% held for the batching window, because at half the round's p99
   fell among the window-held requests' slowest 2%, which bursts of load
   on the host set, and spread 30% between runs; stats and render share
   the rest evenly, for want of any other source; and one window-held
   request, 0.25% of the round, the smallest whole share, is for the
   corrupt pair when there is one. *)
let round_of ~seed ~plan ~renders ~corrupt =
  let reqs cls l = Array.of_list (List.map (fun payload -> { cls; payload }) l) in
  let sweeps kinds =
    List.filter_map
      (fun s -> if List.mem s.Plan.kind kinds then Some (Proto.Sweep s) else None)
      plan
  in
  let windowed = reqs Fused (sweeps [ Plan.Grid; Plan.Uarch; Plan.Fused ]) in
  Mix.round ~seed
    ((140, reqs Stats (sweeps [ Plan.Stats ]))
    :: (140, reqs Render (List.map (fun i -> Proto.Render i) renders))
    ::
    (match corrupt with
    | None -> [ (120, windowed) ]
    | Some spec -> [ (119, windowed); (1, reqs Corrupt [ Proto.Sweep spec ]) ]))

let serve_round seed =
  round_of ~seed ~plan:serve_plan ~renders:serve_render_ids
    ~corrupt:(Some { Plan.bench = corrupt_bench; target = corrupt_target; kind = Plan.Fused })

(* The report workload's serve phase: the same classes over the full
   store the cold report left (every pair's stats; the stored fused
   sweeps of the cache benchmarks and uarch sweeps of the rest), with no
   corrupt pair. *)
let full_round seed = round_of ~seed ~plan:(Plan.full ()) ~renders:[ "tab4" ] ~corrupt:None

(* Output checks (a)-(d): hand-derived results and the paper's
   identities, read back through [Runs]. *)

let expected_output bench out =
  let out = String.trim out in
  match bench with
  | "ackermann" -> Some (out = "61")
  | "queens" -> Some (out = "92")
  | "towers" -> Some (out = "16383")
  | "pi" -> Some (String.starts_with ~prefix:"31415926535897932384626433832795" out)
  | "linpack" -> Some (String.starts_with ~prefix:"ok " out)
  | "grep" -> Some (out = "10 2 5 7 7 2")
  | _ -> None

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let check_programs ~targets benches =
  List.iter
    (fun bench ->
      let outs =
        List.map
          (fun t ->
            let s = Runs.stats bench t in
            if s.Runs.exit_code <> 0 then
              fail "%s on %s exits %d" bench t.Target.name s.Runs.exit_code;
            (match expected_output bench s.Runs.output with
            | Some false -> fail "%s on %s prints %S" bench t.Target.name s.Runs.output
            | _ -> ());
            if contains s.Runs.output "NOT SORTED" then
              fail "%s on %s prints NOT SORTED" bench t.Target.name;
            (* (d) One 32-bit fetch request per DLXe instruction. *)
            if Target.insn_bytes t = 4 && s.Runs.ireq32 <> s.Runs.ic then
              fail "%s on %s: ireq32 %d <> ic %d" bench t.Target.name s.Runs.ireq32 s.Runs.ic;
            s.Runs.output)
          targets
      in
      if List.exists (( <> ) (List.hd outs)) outs then
        fail "%s prints different outputs across targets" bench)
    benches

(* (c) cycles = ic + interlocks + l * (ireq + dreq) on every cacheless
   configuration, the request counts taken from the stats at that bus
   width. *)
let check_identity pairs =
  List.iter
    (fun (bench, t) ->
      let s = Runs.stats bench t in
      List.iter
        (fun bus ->
          let ireq, dreq =
            if bus = 4 then (s.Runs.ireq32, s.Runs.dreq32) else (s.Runs.ireq64, s.Runs.dreq64)
          in
          for l = 0 to 3 do
            let r = Runs.uarch bench t (Uconfig.nocache ~bus_bytes:bus ~wait_states:l) in
            let want = s.Runs.ic + s.Runs.interlocks + (l * (ireq + dreq)) in
            let got = r.Repro_uarch.Pipeline.stalls.Repro_uarch.Stalls.cycles in
            if got <> want then
              fail "%s on %s bus %d l %d: cycles %d <> %d" bench t.Target.name bus l got want
          done)
        [ 4; 8 ])
    pairs

let pairs_of plan kinds =
  List.sort_uniq compare
    (List.filter_map
       (fun s -> if List.mem s.Plan.kind kinds then Some (s.Plan.bench, s.Plan.target) else None)
       plan)

(* Regeneration exactly as bin/report.ml prints it. *)
let render_text ids =
  let b = Buffer.create 65536 in
  List.iter
    (fun id ->
      let e = Experiments.by_id id in
      Printf.bprintf b "================ %s: %s ================\n%s\n" e.Experiments.id
        e.Experiments.title (Experiments.render e))
    ids;
  Buffer.contents b

let all_ids = List.map (fun e -> e.Experiments.id) Experiments.all

(* The traced cold pass. -----------------------------------------------------

   In plan order, one pair at a time: [Runs.image] (compile), then
   [Runs.ensure_trace] (capture) unless the pair's first spec is a stats
   unit — [Runs.stats] captures those itself, and an explicit capture
   first would make it execute the machine a second time — then
   [Plan.execute] of the spec.  Then the fusion replays of
   [fusion_benches] on D16, if any, then one render per id.  Everything
   inside the root span is work the untraced cold phase does too. *)

type pass = {
  text : string;
  sp : Span.t;
  compiled : (string * Target.t) list;  (* in plan order *)
  capture_s : ((string * string) * float) list;
  rss_plan_mb : float;
}

let traced_pass ~plan ~ids ~fusion_benches =
  let sp = Span.create () in
  let seen = Hashtbl.create 128 in
  let compiled = ref [] and capture_s = ref [] in
  let rss = ref 0. in
  let text =
    Span.with_span sp "cold" (fun () ->
        List.iter
          (fun (s : Plan.spec) ->
            let key = (s.Plan.bench, s.Plan.target.Target.name) in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              compiled := (s.Plan.bench, s.Plan.target) :: !compiled;
              ignore (Span.with_span sp "compile" (fun () -> Runs.image s.Plan.bench s.Plan.target));
              if s.Plan.kind <> Plan.Stats then begin
                let (), dt =
                  timed (fun () ->
                      Span.with_span sp "capture" (fun () ->
                          Runs.ensure_trace s.Plan.bench s.Plan.target))
                in
                capture_s := (key, dt) :: !capture_s
              end
            end;
            let name =
              match s.Plan.kind with
              | Plan.Stats -> "plan.stats"
              | Plan.Trace -> "plan.trace"
              | Plan.Grid | Plan.Uarch | Plan.Fused -> "plan.sweep"
            in
            Span.with_span sp name (fun () -> Plan.execute s))
          (Plan.dedup plan);
        rss := self_mb "VmRSS";
        if fusion_benches <> [] then
          Span.with_span sp "fusion" (fun () ->
              List.iter (fun b -> ignore (Runs.fusion b Target.d16)) fusion_benches);
        String.concat ""
          (List.map
             (fun id -> Span.with_span sp ("render." ^ id) (fun () -> render_text [ id ]))
             ids))
  in
  { text; sp; compiled = List.rev !compiled; capture_s = !capture_s; rss_plan_mb = !rss }

(* Per-layer metrics of a traced pass over [store]: the spans, then the
   measurements made after the root span closed — opening every stored
   trace, a bare [Machine.run] of every compiled image, warm reloads and
   re-renders in this process. *)
let layer_metrics ~store ~plan ~ids (p : pass) =
  let sp = p.sp in
  List.iter
    (fun (name, n, total, self) ->
      Printf.eprintf "perfbench: span %-16s x%-4d total %9.3f s  self %9.3f s\n" name n total self)
    (Span.summary sp);
  let root = List.hd (Span.named sp "cold") in
  let cold = Span.duration root in
  let traces_dir = Filename.concat store "traces" in
  let trace_files =
    List.filter (fun f -> Filename.check_suffix f ".trc") (Array.to_list (Sys.readdir traces_dir))
  in
  let (records, bytes), open_s =
    timed (fun () ->
        List.fold_left
          (fun (r, b) f ->
            match Trace.Reader.open_file (Filename.concat traces_dir f) with
            | Ok rd -> (r + Trace.Reader.n_records rd, b + Trace.Reader.byte_size rd)
            | Error e ->
              fail "stored trace %s unreadable: %s" f e;
              (r, b))
          (0, 0) trace_files)
  in
  let simulate =
    List.map
      (fun (bench, t) ->
        let img = Runs.image bench t in
        ((bench, t.Target.name), snd (timed (fun () -> ignore (Machine.run ~trace:false img)))))
      p.compiled
  in
  let sum l = List.fold_left (fun a (_, x) -> a +. x) 0. l in
  let sim_captured =
    List.filter (fun (k, _) -> List.mem_assoc k p.capture_s) simulate
  in
  let trace_bytes = dir_bytes traces_dir in
  let entry_bytes = dir_bytes store - trace_bytes in
  (* Warm: reload the plan's results from the disk cache into an empty
     memo, then re-render with the memo hot.  Each regeneration must be
     byte-identical to the cold one (check e). *)
  let hits0 = Diskcache.hit_count () in
  let loads =
    List.init 5 (fun _ ->
        Runs.clear_memo ();
        snd (timed (fun () -> Pool.run_plan ~jobs:1 plan)))
  in
  let renders =
    List.init 5 (fun _ ->
        let text, dt = timed (fun () -> render_text ids) in
        if text <> p.text then fail "warm in-process regeneration differs from the cold one";
        dt)
  in
  let disk_hits = (Diskcache.hit_count () - hits0) / 5 in
  let render_total = Span.total_where sp (String.starts_with ~prefix:"render.") in
  let render_id id = Span.total sp ("render." ^ id) in
  [
    ("compile.s", Span.total sp "compile");
    ("capture.s", Span.total sp "capture");
    ("simulate.s", sum simulate);
    ("capture_per_simulate", sum p.capture_s /. sum sim_captured);
    ("capture.records", float_of_int records);
    ("capture.bytes", float_of_int bytes);
    ("capture.bytes_per_record", float_of_int bytes /. float_of_int records);
    ("plan.stats.s", Span.total sp "plan.stats");
    ("plan.sweep.s", Span.total sp "plan.sweep" +. Span.total sp "plan.trace");
    ("trace.open.s", open_s);
    ("render.s", render_total);
    ("render.tab4.s", render_id "tab4");
    ("render.xtab1.s", render_id "xtab1");
    (* vtab1's own work is its fusion replays; a pass that renders no
       vtab1 times those replays on its own programs instead. *)
    ("render.vtab1.s", render_id "vtab1" +. Span.total sp "fusion");
    ("store.trace_mb", mb trace_bytes);
    ("store.entry_mb", mb entry_bytes);
    ("rss.plan_mb", p.rss_plan_mb);
    ("warm.load_ms", 1000. *. Pct.median loads);
    ("warm.render_ms", 1000. *. Pct.median renders);
    ("warm.disk_hits", float_of_int disk_hits);
    ("traced.cold_s", cold);
    ("traced.self_s", Span.self_time sp root);
    ("traced.cover", (cold -. Span.self_time sp root) /. cold);
  ]

(* The daemon and the closed loop. ------------------------------------------

   A connection speaks the daemon's protocol through its own [Wire]
   framing; the descriptor stays visible so one thread can wait on two
   connections at once. *)

module Wire = Repro_serve.Wire

type conn = { fd : Unix.file_descr; w : Wire.conn }

let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Ok { fd; w = Wire.of_fd fd }
  | exception Unix.Unix_error (e, _, _) ->
    Unix.close fd;
    Error (Unix.error_message e)

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c ~id payload =
  match Wire.send c.w (Proto.request_to_json { Proto.id; deadline_ms = None; payload }) with
  | Ok () -> ()
  | Error e -> failwith ("send: " ^ e)

let recv c ~id =
  match Wire.recv c.w with
  | Ok (Some j) -> (
    match Proto.response_of_json j with
    | Ok env when env.Proto.id = id -> env.Proto.payload
    | Ok _ -> failwith "response id does not match its request"
    | Error e -> failwith ("bad response: " ^ e))
  | Ok None -> failwith "daemon closed the connection"
  | Error e -> failwith ("recv: " ^ e)

let rpc c payload =
  send c ~id:1 payload;
  recv c ~id:1

type daemon = { pid : int; sock : string; ctl : conn }

let start_daemon ~d16c ~store ~sock ~logfile =
  let err = Unix.openfile logfile [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close err)
      (fun () ->
        spawn ~env:(child_env store) ~stdout:err ~stderr:err d16c
          [ "serve"; "--jobs"; "2"; "--socket"; sock; "--log-interval"; "0" ])
  in
  let deadline = now () +. 60. in
  let rec up () =
    match connect sock with
    | Ok c -> c
    | Error e ->
      if now () > deadline then failwith ("daemon did not come up: " ^ e);
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        children := List.filter (( <> ) pid) !children;
        failwith "daemon exited during start-up");
      Unix.sleepf 0.002;
      up ()
  in
  let ctl = up () in
  (match rpc ctl Proto.Ping with
  | Proto.Pong -> ()
  | _ -> failwith "daemon: ping not answered with pong");
  { pid; sock; ctl }

let stop_daemon d =
  (match rpc d.ctl Proto.Shutdown with
  | Proto.Bye -> ()
  | _ -> fail "serve daemon did not acknowledge shutdown");
  close d.ctl;
  match reap d.pid with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "serve daemon did not exit cleanly"

let daemon_status d =
  match rpc d.ctl Proto.Status with
  | Proto.Status_r s -> s
  | _ -> failwith "daemon: status not answered"

(* Requests sent one at a time over the control connection, untimed;
   any failure aborts the run. *)
let send_each d reqs =
  List.iter
    (fun req ->
      match rpc d.ctl req with
      | Proto.Error_r { message; _ } ->
        failwith ("warm-up " ^ Proto.describe_request req ^ " failed: " ^ message)
      | _ -> ())
    reqs

type outcome = {
  o_cls : cls;
  o_req : Proto.request;
  o_ms : float;  (* client-observed latency *)
  o_resp : Proto.response;
}

let ok o = match o.o_resp with Proto.Error_r _ -> false | _ -> true

(* Two connections, closed loop: each sends its next request only when
   its previous one is answered, taking requests in round order.  At
   every round boundary it stops issuing once [seconds] have passed, so
   runs always hold whole rounds. *)
let drive ~sock ~round ~seconds =
  let conns =
    Array.init 2 (fun _ ->
        match connect sock with Ok c -> c | Error e -> failwith ("connect: " ^ e))
  in
  let n = Array.length round in
  let outcomes = ref [] and issued = ref 0 and stopping = ref false in
  let inflight = Array.make 2 None in
  let t0 = now () in
  let issue i =
    if !issued mod n = 0 && !issued > 0 && not !stopping then
      stopping := now () -. t0 >= seconds;
    if not !stopping then begin
      let r = round.(!issued mod n) in
      incr issued;
      let id = !issued in
      let sent = now () in
      send conns.(i) ~id r.payload;
      inflight.(i) <- Some (r, id, sent)
    end
  in
  issue 0;
  issue 1;
  (* One request outstanding per connection: a readable connection's
     next frame is that request's answer. *)
  while Array.exists Option.is_some inflight do
    let live = List.filter (fun i -> inflight.(i) <> None) [ 0; 1 ] in
    let ready, _, _ =
      try Unix.select (List.map (fun i -> conns.(i).fd) live) [] [] 60.
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun i ->
        match inflight.(i) with
        | Some (r, id, sent) when List.mem conns.(i).fd ready ->
          let resp = recv conns.(i) ~id in
          let ms = (now () -. sent) *. 1000. in
          outcomes := { o_cls = r.cls; o_req = r.payload; o_ms = ms; o_resp = resp } :: !outcomes;
          inflight.(i) <- None;
          issue i
        | _ -> ())
      live
  done;
  let wall = now () -. t0 in
  Array.iter close conns;
  (Array.of_list (List.rev !outcomes), wall)

(* Check (f): every digest the daemon returned equals [Digests.of_spec]
   and every render equals [Experiments.render], both computed here over
   the same store. *)
let check_answers outcomes =
  let digests = Hashtbl.create 64 and texts = Hashtbl.create 4 in
  Array.iter
    (fun o ->
      match (o.o_req, o.o_resp) with
      | Proto.Sweep spec, Proto.Sweep_r r ->
        let key = Plan.spec_to_string spec in
        let want =
          match Hashtbl.find_opt digests key with
          | Some d -> d
          | None ->
            let d = Digests.of_spec spec in
            Hashtbl.add digests key d;
            d
        in
        if r.digest <> want then fail "%s: served digest %s <> %s" key r.digest want
      | Proto.Render id, Proto.Render_r r ->
        let want =
          match Hashtbl.find_opt texts id with
          | Some t -> t
          | None ->
            let t = Experiments.render (Experiments.by_id id) in
            Hashtbl.add texts id t;
            t
        in
        if r.text <> want then fail "%s: served render differs" id
      | _, Proto.Error_r _ -> ()
      | _ -> fail "answer of the wrong kind for %s" (Proto.describe_request o.o_req))
    outcomes

let lat_of cls outcomes =
  Array.to_list outcomes
  |> List.filter (fun o -> o.o_cls = cls && ok o)
  |> List.map (fun o -> o.o_ms)

let p ~num ~den what xs =
  match Pct.percentile ~num ~den xs with
  | Some v -> v
  | None ->
    failwith
      (Printf.sprintf "%s: %d samples, too few for a %d/%d percentile" what (List.length xs) num den)

(* End-to-end serve figures of a loop: completed requests per second, and
   the p99 over every request with failures counted as missing it. *)
let serve_e2e (outcomes, wall) =
  let completed = Array.fold_left (fun n o -> if ok o then n + 1 else n) 0 outcomes in
  let all = Array.to_list (Array.map (fun o -> if ok o then o.o_ms else infinity) outcomes) in
  [
    ("serve_rps", float_of_int completed /. wall);
    ("serve_p99_ms", p ~num:99 ~den:100 "serve latency" all);
  ]

let serve_layers (outcomes, _) (st : Proto.status) =
  let server_ms =
    Array.to_list outcomes
    |> List.filter_map (fun o ->
           match o.o_resp with Proto.Sweep_r r -> Some (o.o_ms, r.ms) | _ -> None)
  in
  [
    ("serve.stats_p50_ms", Pct.median (lat_of Stats outcomes));
    ("serve.stats_p90_ms", p ~num:9 ~den:10 "stats latency" (lat_of Stats outcomes));
    ("serve.render_p50_ms", Pct.median (lat_of Render outcomes));
    ("serve.fused_p50_ms", Pct.median (lat_of Fused outcomes));
    ("serve.server_ms", Pct.median (List.map snd server_ms));
    ("serve.wait_ms", Pct.median (List.map (fun (c, s) -> c -. s) server_ms));
    ("serve.runs", float_of_int st.Proto.runs);
    ("serve.coalesced", float_of_int st.Proto.coalesced);
    ("serve.batches", float_of_int st.Proto.batches);
  ]

let count_failed outcomes = Array.fold_left (fun n o -> if ok o then n else n + 1) 0 outcomes

(* Every failure must be a corrupt-pair request: anything else failing is
   a finding the run must not hide. *)
let check_failures outcomes =
  Array.iter
    (fun o ->
      match o.o_resp with
      | Proto.Error_r { code; message } when o.o_cls <> Corrupt ->
        fail "%s %s failed: %s %s" (cls_name o.o_cls) (Proto.describe_request o.o_req)
          (Proto.error_code_to_string code) message
      | _ -> ())
    outcomes

(* The report workload. ------------------------------------------------------

   Set-up: a fresh process of the program's libraries in which the
   program creates an empty store.  Cold: a child process regenerates
   every artifact from an empty store exactly as `report --jobs 1` does.
   Warm: regenerate again, as fresh `report --jobs 1` processes, until
   the run length has passed (and, on the traced run, their p99 has ten
   samples beyond it).  Then the serve mix against a daemon over the
   full store, for the run length.  The warm p99 is a per-layer figure:
   bursts of load from other tenants of the host move it by a third from
   run to run, too much for an end-to-end bound.

   The cold phase runs in a child so that this process, which spawns
   the warm reports and drives the daemon, stays small: forking from
   and collecting garbage in a 2.5 GB heap would show in their
   latencies.

   The store's creation alone, timed in-process, is a few directory
   operations whose time follows the file system's state: the per-run
   medians ranged over 3x (66-219 us) in seven runs, too much for any
   bound.  A set-up sample is therefore the whole process, from spawn to
   exit: its start, every library's initialisation and the creation.
   One takes a few milliseconds, less than one of the host's speed
   phases, so samples are taken on a scratch store five times before the
   cold phase, once every 50 warm reports and five times at the end;
   [setup_s] is their median.  The cold phase creates the real store
   itself, as `report` does. *)

(* A child phase of this executable: its standard output carries lines
   [value NAME X] and [fail MESSAGE], read back once it has exited. *)
let run_phase ~work ~store args =
  let out = Filename.concat work "phase.out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let st =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        reap
          (spawn ~env:(child_env store) ~stdout:fd ~stderr:Unix.stderr Sys.executable_name
             ("--store" :: store :: args)))
  in
  if st <> Unix.WEXITED 0 then failwith ("child phase " ^ String.concat " " args ^ " failed");
  List.filter_map
    (fun l ->
      match String.index_opt l ' ' with
      | Some i when String.sub l 0 i = "value" ->
        Scanf.sscanf l "value %s %f" (fun n v -> Some (n, v))
      | Some i when String.sub l 0 i = "fail" ->
        failures := String.sub l (i + 1) (String.length l - i - 1) :: !failures;
        None
      | _ -> None)
    (In_channel.with_open_text out In_channel.input_lines)

let emit_phase values =
  List.iter (fun (n, v) -> Printf.printf "value %s %.17g\n" n v) values;
  List.iter
    (fun m -> print_endline ("fail " ^ String.map (function '\n' -> ' ' | c -> c) m))
    !failures

(* The set-up child: [Diskcache] creates the empty store, through the
   call by which the first trace a `report` captures creates it. *)
let setup_phase ~store =
  use_store store;
  ignore (Diskcache.subdir "traces")

let setup_probe ~work samples =
  let probe = Filename.concat work "probe" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let st, dt =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        timed (fun () ->
            reap
              (spawn ~env:(child_env probe) ~stdout:devnull ~stderr:Unix.stderr
                 Sys.executable_name [ "--phase"; "setup"; "--store"; probe ])))
  in
  if st <> Unix.WEXITED 0 then failwith "set-up child failed";
  samples := dt :: !samples;
  rm_rf probe

(* The child's cold phase over the empty store [store]: the regeneration,
   timed (or traced), written to [out]; then checks (a)-(d) over every
   program and swept pair. *)
let cold_phase ~store ~out ~traced =
  use_store store;
  let plan = Plan.full () in
  let checks () =
    check_programs ~targets:seven_targets Plan.suite_names;
    check_identity (pairs_of plan [ Plan.Uarch; Plan.Fused ])
  in
  let save text = Out_channel.with_open_bin out (fun oc -> output_string oc text) in
  if traced then begin
    let pass = traced_pass ~plan ~ids:all_ids ~fusion_benches:[] in
    save pass.text;
    checks ();
    layer_metrics ~store ~plan ~ids:all_ids pass
  end
  else begin
    let text, cold_s =
      timed (fun () ->
          Pool.run_plan ~jobs:1 plan;
          render_text all_ids)
    in
    let peak = self_mb "VmHWM" in
    save text;
    checks ();
    [ ("report_cold_s", cold_s); ("peak_rss_mb", peak) ]
  end

(* Each warm report writes into a pipe, not a file, so no sample waits
   on the file system's journal. *)
let warm_reports ~report ~store ~cold_text ~seconds ~need ~probe =
  let env = child_env store in
  let chunk = Bytes.create 65536 and text = Buffer.create 65536 in
  let regenerate () =
    let r, w = Unix.pipe ~cloexec:true () in
    Fun.protect
      ~finally:(fun () -> Unix.close r)
      (fun () ->
        let pid =
          Fun.protect
            ~finally:(fun () -> Unix.close w)
            (fun () -> spawn ~env ~stdout:w ~stderr:Unix.stderr report [ "--jobs"; "1" ])
        in
        Buffer.clear text;
        let rec drain () =
          match Unix.read r chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | k ->
            Buffer.add_subbytes text chunk 0 k;
            drain ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
        in
        drain ();
        reap pid)
  in
  let t0 = now () in
  let rec go acc n =
    if n >= need && now () -. t0 >= seconds then List.rev acc
    else begin
      let st, dt = timed regenerate in
      if st <> Unix.WEXITED 0 then fail "warm report %d exited abnormally" n
      else if Buffer.contents text <> cold_text then
        fail "warm report %d differs from the cold regeneration" n;
      if n mod 50 = 49 then probe ();
      go ((dt *. 1000.) :: acc) (n + 1)
    end
  in
  go [] 0

let full_serve_phase ~d16c ~store ~work ~seed ~seconds =
  let d =
    start_daemon ~d16c ~store ~sock:(Filename.concat work "s.sock")
      ~logfile:(Filename.concat work "daemon.log")
  in
  (* Every distinct request once first, so the daemon's first reads of
     the store stay out of the latencies, as they do on [serve]. *)
  let round = full_round seed in
  let seen = Hashtbl.create 256 in
  send_each d
    (List.filter_map
       (fun r ->
         let k = Proto.describe_request r.payload in
         if Hashtbl.mem seen k then None
         else begin
           Hashtbl.add seen k ();
           Some r.payload
         end)
       (Array.to_list round));
  let loop = drive ~sock:d.sock ~round ~seconds in
  let st = daemon_status d in
  stop_daemon d;
  (loop, st)

let report_workload ~report ~d16c ~work ~seed ~seconds ~traced =
  let store = Filename.concat work "store" in
  let setups = ref [] in
  let probe () = setup_probe ~work setups in
  for _ = 1 to 5 do probe () done;
  let cold_file = Filename.concat work "cold.out" in
  let child =
    run_phase ~work ~store
      [ "--phase"; "cold"; "--out"; cold_file; "--trace"; (if traced then "1" else "0") ]
  in
  let cold_text = In_channel.with_open_bin cold_file In_channel.input_all in
  let store_mb = mb (dir_bytes store) in
  sync_tree store;
  use_store store;
  (* The untraced run reports the warm median only; the traced one
     also their p99, which needs ten samples beyond it. *)
  let need = if traced then Pct.min_samples ~num:99 ~den:100 else 1 in
  let warm = warm_reports ~report ~store ~cold_text ~seconds ~need ~probe in
  let loop, st = full_serve_phase ~d16c ~store ~work ~seed ~seconds in
  check_answers (fst loop);
  check_failures (fst loop);
  let attempted = 1 + List.length warm + Array.length (fst loop) in
  if traced then
    ( child @ (("warm.p99_ms", p ~num:99 ~den:100 "warm report" warm) :: serve_layers loop st),
      attempted,
      count_failed (fst loop) )
  else begin
    for _ = 1 to 5 do probe () done;
    let values =
      child
      @ [
          ("setup_s", Pct.median !setups);
          ("store_mb", store_mb);
          ("report_warm_p50_ms", Pct.median warm);
        ]
      @ serve_e2e loop
    in
    (values, attempted, count_failed (fst loop))
  end

(* The serve workload. -------------------------------------------------------

   Set-up, three times over, each from an empty store: capture the
   corrupt pair's trace and flip one byte in a chunk payload; start
   `d16c serve` with its default settings (two workers, 10 ms window);
   send the warm-up requests one at a time.  The last daemon then serves
   the closed loop for the run length, in whole rounds.

   Its end-to-end figures: [setup_s] is the daemon's start and warm-up,
   which the capture and the flipped byte, the benchmark's own
   preparation, precede; [report_cold_s] is the warm-up alone, the cold
   computation of the workload's results through the daemon;
   [report_warm_p50_ms] the median render request, a warm regeneration
   of an artifact.  The traced run's [warm.p99_ms] is the p99 over every
   answered request: a render p99 would sit between the one-poll and
   two-poll modes of [Batcher.await] and jump from run to run. *)

(* One byte in the middle of the middle chunk's payload: the footer and
   header stay intact, so the trace opens, and the chunk's checksum
   fails when a replay first touches it. *)
let corrupt_store () =
  Runs.ensure_trace corrupt_bench corrupt_target;
  let path = Runs.trace_path corrupt_bench corrupt_target in
  let pos =
    match Trace.Reader.open_file path with
    | Ok rd ->
      let c = Trace.Reader.chunk rd (Trace.Reader.n_chunks rd / 2) in
      c.Trace.Reader.byte_offset + (c.Trace.Reader.byte_length / 2)
    | Error e -> failwith ("corrupt pair: " ^ e)
  in
  Runs.clear_memo ();
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      if Unix.read fd b 0 1 <> 1 then failwith "corrupt pair: short read";
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      if Unix.write fd b 0 1 <> 1 then failwith "corrupt pair: short write")

let warm_up d =
  send_each d
    (List.map (fun s -> Proto.Sweep s) serve_plan
    @ List.map (fun id -> Proto.Render id) serve_render_ids)

let serve_setup ~d16c ~work k =
  let store = Filename.concat work (Printf.sprintf "store%d" k) in
  use_store store;
  corrupt_store ();
  let t0 = now () in
  let d =
    start_daemon ~d16c ~store ~sock:(Filename.concat work (Printf.sprintf "s%d.sock" k))
      ~logfile:(Filename.concat work "daemon.log")
  in
  let t1 = now () in
  warm_up d;
  let t2 = now () in
  (store, d, t2 -. t0, t2 -. t1)

let serve_workload ~d16c ~work ~seed ~seconds ~traced =
  (* The traced cold pass runs first, on a store of its own, so its
     renders are this process's first (tab4 and xtab1 memoize in
     process). *)
  let layers =
    if traced then begin
      let store = Filename.concat work "traced" in
      use_store store;
      let ids = serve_render_ids @ [ "xtab1" ] in
      let pass = traced_pass ~plan:serve_plan ~ids ~fusion_benches:serve_stats_benches in
      let l = layer_metrics ~store ~plan:serve_plan ~ids pass in
      Runs.clear_memo ();
      rm_rf store;
      l
    end
    else []
  in
  let setups =
    List.init 3 (fun k ->
        let ((store, d, _, _) as s) = serve_setup ~d16c ~work k in
        if k < 2 then begin
          stop_daemon d;
          rm_rf store
        end;
        s)
  in
  let store, d, _, _ = List.nth setups 2 in
  let store_mb = mb (dir_bytes store) in
  sync_tree store;
  let loop = drive ~sock:d.sock ~round:(serve_round seed) ~seconds in
  let peak = float_of_int (proc_kb (string_of_int d.pid) "VmHWM") /. 1024. in
  let st = daemon_status d in
  stop_daemon d;
  use_store store;
  let outcomes = fst loop in
  check_answers outcomes;
  check_failures outcomes;
  check_programs ~targets:serve_targets serve_stats_benches;
  check_identity (pairs_of serve_plan [ Plan.Fused ]);
  let served =
    Array.to_list outcomes |> List.filter ok |> List.map (fun o -> o.o_ms)
  in
  let values =
    if traced then
      layers @ (("warm.p99_ms", p ~num:99 ~den:100 "served latency" served) :: serve_layers loop st)
    else
      [
        ("setup_s", Pct.median (List.map (fun (_, _, s, _) -> s) setups));
        ("peak_rss_mb", peak);
        ("report_cold_s", Pct.median (List.map (fun (_, _, _, c) -> c) setups));
        ("store_mb", store_mb);
        ("report_warm_p50_ms", Pct.median (lat_of Render outcomes));
      ]
      @ serve_e2e loop
  in
  (values, Array.length outcomes, count_failed outcomes)

(* Main. -------------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let report = ref "" and d16c = ref "" and work = ref "" in
  let phase = ref "" and store = ref "" and out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "report|serve");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--report-exe", Arg.Set_string report, "PATH");
      ("--d16c-exe", Arg.Set_string d16c, "PATH");
      ("--work", Arg.Set_string work, "DIR");
      ("--phase", Arg.Set_string phase, "setup|cold (child phases)");
      ("--store", Arg.Set_string store, "DIR (child phases)");
      ("--out", Arg.Set_string out, "FILE (cold phase)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload report|serve --seed N --seconds S --trace 0|1 --report-exe P --d16c-exe P --work DIR";
  let traced = !trace = 1 in
  match !phase with
  | "setup" -> setup_phase ~store:!store
  | "cold" -> emit_phase (cold_phase ~store:!store ~out:!out ~traced)
  | "" ->
    if !work = "" || !report = "" || !d16c = "" then
      failwith "missing --work, --report-exe or --d16c-exe";
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let values, attempted, failed =
      match !workload with
      | "report" ->
        report_workload ~report:!report ~d16c:!d16c ~work:!work ~seed:!seed ~seconds:!seconds
          ~traced
      | "serve" -> serve_workload ~d16c:!d16c ~work:!work ~seed:!seed ~seconds:!seconds ~traced
      | w -> failwith ("unknown workload " ^ w)
    in
    let defs = if traced then Metric.per_layer else Metric.end_to_end in
    print_endline (Metric.result_line ~correct:(!failures = []) ~attempted ~failed ~defs values)
  | ph -> failwith ("unknown phase " ^ ph)
