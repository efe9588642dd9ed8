(* perfbench: the meta-optimizer's repeatable benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench inputs --workload NAME --seed N

   With --trace 0 it repeats the workload (one fresh input draw per
   repetition, each in a fresh process) for about S seconds, checks the first
   repetition's results against the library's sequential driver, and
   prints the end-to-end metrics.  With --trace 1 it runs the first
   repetition twice, untraced and traced, re-evaluates the traced run's
   misses layer by layer, and prints the per-layer metrics.  The last
   line of standard output is the JSON result. *)

open Perfbench
module S = Driver.Study
module T = Gp.Telemetry

let now = Unix.gettimeofday

type opts = {
  name : string;
  workload : Inputs.workload;
  seed : int;
  seconds : float;
  trace : bool;
}

let usage () =
  prerr_endline
    "usage: perfbench --workload (sched-seq|prefetch-par|hb-serve) --seed N \
     --seconds S --trace 0|1\n\
    \       perfbench inputs --workload NAME --seed N";
  exit 2

let parse args =
  let rec go acc = function
    | [] -> acc
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let name = get "workload" in
  let workload =
    match List.assoc_opt name Inputs.workloads with Some w -> w | None -> usage ()
  in
  let opt k d = match List.assoc_opt k kv with Some _ -> int k | None -> d in
  { name; workload; seed = int "seed"; seconds = float_of_int (opt "seconds" 10);
    trace = opt "trace" 0 = 1 }

(* --- One repetition ---------------------------------------------------- *)

type rep = {
  wall_s : float;
  setup_s : float;
  requests : int;
  faults : int;
  rss_mb : float;  (* peak RSS of the process that ran the repetition *)
  runs : Study_run.run list;
  served : Serve_run.rep option;
}

let tmp_root = Filename.concat ".perfbench-tmp" (string_of_int (Unix.getpid ()))

let run_rep ~spans ~track w (inputs : Inputs.rep) k =
  match inputs with
  | Inputs.Local s ->
    let cfg =
      { S.default_config with S.backend = Inputs.backend w; jobs = Inputs.jobs w }
    in
    let r = Study_run.run ~spans ~track ~worker_rss:true cfg s in
    { wall_s = r.Study_run.wall_s; setup_s = r.Study_run.setup_s;
      requests = r.Study_run.requests; faults = r.Study_run.faults;
      rss_mb = Proc.hwm_mb (Unix.getpid ());
      runs = [ r ]; served = None }
  | Inputs.Served { clients; jobs } ->
    let dir = Filename.concat tmp_root (Printf.sprintf "rep%d" k) in
    Proc.remove_tree dir;
    Unix.mkdir dir 0o755;
    let r = Serve_run.run ~spans ~track ~dir ~jobs clients in
    let runs = r.Serve_run.runs in
    { wall_s = r.Serve_run.wall_s; setup_s = r.Serve_run.setup_s;
      requests = List.fold_left (fun a x -> a + x.Study_run.requests) 0 runs;
      faults =
        r.Serve_run.failures
        + List.fold_left (fun a x -> a + x.Study_run.faults) 0 runs;
      rss_mb = Proc.hwm_mb (Unix.getpid ());
      runs; served = Some r }

(* Run [f] in a forked child and return its result, so that every
   repetition starts from the same small process, as a study run from
   the command line does.  The child never returns into the caller. *)
let isolated (f : unit -> 'a) : 'a =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let out =
      match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)
    in
    Serve_run.kill_all ();
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc (out : ('a, string) result) [];
    close_out oc;
    flush stdout;
    flush stderr;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let out : ('a, string) result option =
      try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None
    in
    close_in ic;
    Serve_run.reap pid;
    (match out with
    | Some (Ok v) -> v
    | Some (Error e) -> failwith e
    | None -> failwith "repetition process died")

let drop_store rep =
  Option.iter (fun r -> Proc.remove_tree (Filename.dirname r.Serve_run.store)) rep.served

(* Results of every study of a repetition against the library's
   sequential driver (each distinct study once), plus every baseline
   checksum against the reference engine (each study shape once). *)
let check_rep rep =
  let once tbl key f =
    if Hashtbl.mem tbl key then 0
    else begin
      Hashtbl.add tbl key ();
      f ()
    end
  in
  let studies = Hashtbl.create 16 and shapes = Hashtbl.create 16 in
  List.fold_left
    (fun bad (r : Study_run.run) ->
      let s = r.Study_run.study in
      bad
      + once studies (Inputs.describe (Inputs.Local s)) (fun () ->
            Study_run.mismatches r.Study_run.result (Study_run.reference s))
      + once shapes (s.Inputs.kind, s.Inputs.benches) (fun () ->
            Study_run.baseline_mismatches r))
    0 rep.runs

let results_mismatch a b =
  if List.length a.runs <> List.length b.runs then 1
  else
    (* served studies finish in thread order; compare by study *)
    let by_study runs =
      List.sort compare
        (List.map (fun (r : Study_run.run) ->
             (Inputs.describe (Inputs.Local r.Study_run.study), r.Study_run.result))
           runs)
    in
    List.fold_left2
      (fun acc (_, x) (_, y) -> acc + Study_run.mismatches x y)
      0 (by_study a.runs) (by_study b.runs)

let say fmt = Printf.printf (fmt ^^ "\n%!")

let ms x = 1000.0 *. x

(* --- End-to-end run ------------------------------------------------------ *)

let end_to_end o =
  let off = Span.create ~enabled:false in
  let t0 = now () in
  let reps = ref [] and failed = ref 0 in
  (try
     let k = ref 0 in
     (* Start a repetition only while one is expected to end inside the
        window (give or take a tenth), so a run lasts about --seconds. *)
     let fits () =
       !k = 0
       || now () -. t0 +. Stats.median (List.map (fun r -> r.wall_s) !reps)
          <= 1.1 *. o.seconds
     in
     while fits () do
       let inputs = Inputs.rep o.workload ~seed:o.seed !k in
       say "rep %d: %s" !k (Inputs.describe inputs);
       let r =
         isolated (fun () -> run_rep ~spans:off ~track:false o.workload inputs !k)
       in
       say "rep %d: wall %.3f s, setup %.3f s, %d requests, %d faults" !k
         r.wall_s r.setup_s r.requests r.faults;
       reps := r :: !reps;
       incr k
     done
   with e ->
     Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
     incr failed);
  let reps = List.rev !reps in
  List.iter drop_store reps;
  let bad = match reps with r :: _ -> check_rep r | [] -> 1 in
  say "correctness: %d mismatches against the sequential reference" bad;
  (match List.filter_map (fun r -> r.served) reps with
  | [] -> ()
  | served ->
    let rtt = List.concat_map (fun r -> r.Serve_run.rtt_s) served in
    say "served round trips: %d, p50 %.3f ms, p90 %.3f ms" (List.length rtt)
      (ms (Stats.percentile rtt 50.0)) (ms (Stats.percentile rtt 90.0)));
  let med f = Stats.median (List.map f reps) in
  let top f = List.fold_left (fun a r -> Float.max a (f r)) 0.0 reps in
  let values =
    [
      ("wall_s", med (fun r -> r.wall_s));
      ("setup_s", med (fun r -> r.setup_s));
      ( "cand_per_s",
        med (fun r -> Stats.ratio (float_of_int r.requests) (r.wall_s -. r.setup_s)) );
      (* a peak: the largest over the repetitions *)
      ("peak_rss_mb", top (fun r -> r.rss_mb));
    ]
  in
  let attempted = List.fold_left (fun a r -> a + r.requests) 0 reps in
  let failed = !failed + bad + List.fold_left (fun a r -> a + r.faults) 0 reps in
  (bad = 0 && failed = 0, max 1 attempted, failed, values)

(* --- Traced run ----------------------------------------------------------- *)

let float_field k j =
  match T.member k j with
  | Some (T.Float f) -> f
  | Some (T.Int n) -> float_of_int n
  | _ -> 0.0

(* Distinct misses of the run, deduplicated across studies the way the
   daemon's store would see them, grouped per study shape, with the
   number of studies of that shape. *)
let miss_groups rep =
  let groups = Hashtbl.create 8 and order = ref [] and seen = Hashtbl.create 1024 in
  List.iter
    (fun (r : Study_run.run) ->
      let s = r.Study_run.study in
      let gkey = (s.Inputs.kind, s.Inputs.benches) in
      if not (Hashtbl.mem groups gkey) then begin
        Hashtbl.add groups gkey (r, ref [], ref 0);
        order := gkey :: !order
      end;
      let _, ms, n = Hashtbl.find groups gkey in
      incr n;
      let fs = S.feature_set_of s.Inputs.kind in
      List.iter
        (fun (m : Study_run.miss) ->
          let k = (gkey, m.Study_run.dataset, Gp.Sexp.to_string fs m.Study_run.genome, m.Study_run.case) in
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.add seen k ();
            ms := m :: !ms
          end)
        r.Study_run.misses)
    rep.runs;
  List.rev_map
    (fun g ->
      let r, ms, n = Hashtbl.find groups g in
      (r, List.rev !ms, !n))
    !order

let subtree_self spans root =
  let kids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add kids s.Span.parent s) spans;
  let rec go (s : Span.span) =
    let children = Hashtbl.find_all kids s.Span.id in
    Span.self_time ~start:s.Span.start ~stop:s.Span.stop
      (List.map (fun c -> (c.Span.start, c.Span.stop)) children)
    +. List.fold_left (fun a c -> a +. go c) 0.0 children
  in
  go root

let traced o =
  let inputs = Inputs.rep o.workload ~seed:o.seed 0 in
  say "inputs: %s" (Inputs.describe inputs);
  let off = Span.create ~enabled:false in
  let plain =
    isolated (fun () -> run_rep ~spans:off ~track:false o.workload inputs 0)
  in
  drop_store plain;
  say "untraced: wall %.3f s" plain.wall_s;
  let rep, sps, root, parmap_p50, steals, spawn_s, pool_batches =
    isolated (fun () ->
        (* The library's own telemetry (parent-side pool registry) is on
           for local workloads; the daemon's counters come from its
           summary instead. *)
        let local =
          match inputs with Inputs.Local _ -> true | Inputs.Served _ -> false
        in
        let sink, records = T.memory_sink () in
        let epoch = now () in
        if local then T.set_sink (Some sink);
        let spans = Span.create ~enabled:true in
        let root = Span.enter spans "workload" in
        let rep =
          Fun.protect
            ~finally:(fun () -> Span.leave spans root)
            (fun () -> run_rep ~spans ~track:true o.workload inputs 0)
        in
        let p50 n = T.Histogram.percentile (T.histogram n) 50.0 in
        let parmap_p50 =
          List.map (fun n -> (n, p50 n))
            [ "parmap.queue_wait_s"; "parmap.dispatch_s"; "parmap.chunk_size" ]
        in
        let pool_batches =
          List.filter_map
            (fun j ->
              if
                T.member "kind" j = Some (T.String "pool")
                && T.member "mode" j = Some (T.String "supervised")
              then Some (epoch +. float_field "ts" j, float_field "wall_s" j)
              else None)
            (records ())
        in
        ( rep, Span.spans spans, root, parmap_p50,
          T.Counter.value (T.counter "parmap.steals"),
          T.Histogram.sum (T.histogram "parmap.pool_spawn_s"),
          pool_batches ))
  in
  say "traced: wall %.3f s" rep.wall_s;
  let self = Span.self_times sps in
  let self_of n = Option.value ~default:0.0 (List.assoc_opt n self) in
  let total = Span.total sps in
  let overhead = rep.wall_s -. plain.wall_s in
  let root_span = List.find (fun s -> s.Span.id = root) sps in
  let unattributed = rep.wall_s -. subtree_self sps root_span in
  let trace_ok = Float.abs unattributed <= Float.abs overhead +. 0.05 in
  say "tracing: overhead %.3f s; wall minus summed self times %.4f s (%s)"
    overhead unattributed (if trace_ok then "ok" else "MISMATCH");
  (* Layer by layer, from the misses re-evaluated sequentially. *)
  let rsp = Span.create ~enabled:true in
  let acc = Layers.create () in
  (* every study of a shape prepares it once *)
  let prepare_s = ref 0.0 in
  List.iter
    (fun ((r : Study_run.run), misses, studies) ->
      let c =
        Layers.context rsp acc ~kind:r.Study_run.study.Inputs.kind
          ~machine:r.Study_run.machine ~benches:r.Study_run.study.Inputs.benches
          ~expected:r.Study_run.baselines
      in
      prepare_s := !prepare_s +. (float_of_int studies *. c.Layers.prepare_s);
      List.iteri (fun i m -> Layers.reevaluate rsp acc c ~req:i m) misses)
    (miss_groups rep);
  let rs = Span.spans rsp in
  let rtotal = Span.total rs in
  say "re-evaluation: %d compiles, %d mismatches" acc.Layers.compiles acc.Layers.mismatches;
  (* Correctness: traced and untraced agree, and both match the
     library's sequential driver. *)
  let bad =
    results_mismatch plain rep + check_rep rep + acc.Layers.mismatches
    + if trace_ok then 0 else 1
  in
  say "correctness: %d mismatches" bad;
  let cache =
    List.fold_left (fun a (r : Study_run.run) -> Study_run.sum_cache a r.Study_run.cache)
      { Driver.Evaluator.memo_hits = 0; disk_hits = 0; misses = 0 } rep.runs
  in
  let requests = float_of_int rep.requests in
  let batch_total = total "evaluator.batch" in
  let created_at =
    List.fold_left (fun a s -> if s.Span.name = "study.create" then Float.max a s.Span.stop else a)
      0.0 sps
  in
  (* Pool batches after set-up: the evaluator's, not the baselines'. *)
  let pool = List.filter (fun (ts, _) -> ts >= created_at) pool_batches in
  let pool_wall = Stats.sum (List.map snd pool) in
  let jobs = float_of_int (Inputs.jobs o.workload) in
  let backend_s =
    match rep.served with
    | Some _ -> total "serve.eval"
    | None ->
      if pool <> [] then pool_wall
      else List.fold_left (fun a (r : Study_run.run) -> a +. r.Study_run.engine_s) 0.0 rep.runs
  in
  let serve_values =
    match rep.served with
    | None -> []
    | Some r ->
      let store = Serve_run.summary_int r "store_hits"
      and evaluated = Serve_run.summary_int r "evaluated"
      and coalesced = Serve_run.summary_int r "coalesced" in
      let t0 = now () in
      let st = Driver.Shardstore.open_store r.Serve_run.store in
      let open_s = now () -. t0 in
      let entries =
        List.init (Driver.Shardstore.shards st) (fun i ->
            let text = Proc.read_file (Driver.Shardstore.shard_file st i) in
            List.length (List.filter (( <> ) "") (String.split_on_char '\n' text)))
        |> List.fold_left ( + ) 0
      in
      let digests = r.Serve_run.digests in
      let t0 = now () in
      List.iter (fun d -> ignore (Driver.Shardstore.find st d)) digests;
      let find_s = now () -. t0 in
      [
        ("serve.startup_s", Stats.median r.Serve_run.starts_s);
        ( "serve.dial_s",
          Stats.median (List.map (fun (a, b) -> b -. a) r.Serve_run.dials) );
        ("serve.requests", float_of_int (List.length r.Serve_run.rtt_s));
        ( "serve.tasks_per_request",
          Stats.ratio (float_of_int r.Serve_run.tasks) (float_of_int (List.length r.Serve_run.rtt_s)) );
        ("serve.rtt_p50_ms", ms (Stats.percentile r.Serve_run.rtt_s 50.0));
        ("serve.rtt_p90_ms", ms (Stats.percentile r.Serve_run.rtt_s 90.0));
        ("serve.daemon_rss_mb", r.Serve_run.daemon_rss_mb);
        ("serve.store_hits", float_of_int store);
        ("serve.evaluated", float_of_int evaluated);
        ("serve.coalesced", float_of_int coalesced);
        ("serve.batched", float_of_int (Serve_run.summary_int r "batched"));
        ("serve.dispatches", float_of_int (Serve_run.summary_int r "dispatches"));
        ("serve.max_queue_depth", float_of_int (Serve_run.summary_max r "max_queue_depth"));
        ("serve.rejected", float_of_int (Serve_run.summary_int r "rejected"));
        ( "serve.hit_ratio",
          Stats.ratio (float_of_int store) (float_of_int (store + coalesced + evaluated)) );
        ("shardstore.open_s", open_s);
        ("shardstore.entries", float_of_int entries);
        ( "shardstore.find_ns",
          Stats.ratio (find_s *. 1e9) (float_of_int (List.length digests)) );
        ("shardstore.evictions", float_of_int (Driver.Shardstore.evictions st));
      ]
  in
  drop_store rep;
  let prepare_s = !prepare_s in
  let values =
    [
      ("study.create_s", total "study.create");
      ("study.prepare_s", prepare_s);
      ("study.baseline_s", Float.max 0.0 (total "study.create" -. prepare_s));
      ("study.close_s", total "study.close");
      ("evolve.gen_p50_s", Stats.median (Span.durations sps "evolve.gen"));
      ("evolve.self_s", self_of "evolve.run" +. self_of "evolve.gen" +. self_of "evolve.final");
      ("evaluator.requests", requests);
      ("evaluator.memo_hits", float_of_int cache.Driver.Evaluator.memo_hits);
      ("evaluator.disk_hits", float_of_int cache.Driver.Evaluator.disk_hits);
      ("evaluator.misses", float_of_int cache.Driver.Evaluator.misses);
      ( "evaluator.hit_ratio",
        Stats.ratio
          (float_of_int (cache.Driver.Evaluator.memo_hits + cache.Driver.Evaluator.disk_hits))
          requests );
      ("evaluator.self_s", Float.max 0.0 (batch_total -. backend_s));
      ("parmap.batch_wall_s", pool_wall);
      ( "parmap.utilization",
        if pool = [] then 0.0 else Stats.ratio acc.Layers.task_work_s (jobs *. pool_wall) );
      ("parmap.queue_wait_p50_s", List.assoc "parmap.queue_wait_s" parmap_p50);
      ("parmap.dispatch_p50_s", List.assoc "parmap.dispatch_s" parmap_p50);
      ("parmap.chunk_p50", List.assoc "parmap.chunk_size" parmap_p50);
      ("parmap.steals", float_of_int steals);
      ("parmap.spawn_s", spawn_s);
      ( "parmap.worker_rss_mb",
        List.fold_left
          (fun a (r : Study_run.run) -> Float.max a r.Study_run.worker_rss_mb)
          0.0 rep.runs );
      ("compile.calls", float_of_int acc.Layers.compiles);
      ("compile.copy_s", rtotal "compile.copy");
      ("compile.prefetch_s", rtotal "compile.prefetch");
      ("compile.hyperblock_s", rtotal "compile.hyperblock");
      ("compile.regalloc_s", rtotal "compile.regalloc");
      ("compile.sched_s", rtotal "compile.sched");
      ("compile.layout_s", rtotal "compile.layout");
      ("compile.hb_regions_formed", float_of_int acc.Layers.hb_regions);
      ("compile.spills", float_of_int acc.Layers.spills);
      ("compile.prefetches_inserted", float_of_int acc.Layers.prefetches);
      ("simcache.calls", float_of_int acc.Layers.sim_calls);
      ("simcache.artifact_hits", float_of_int acc.Layers.hits);
      ("simcache.replays", float_of_int acc.Layers.replays);
      ("simcache.simulations", float_of_int acc.Layers.sims);
      ( "simcache.hit_ratio",
        Stats.ratio (float_of_int (acc.Layers.hits + acc.Layers.replays))
          (float_of_int acc.Layers.sim_calls) );
      ("simcache.self_s", rtotal "simcache.keys");
      ("simulate.full_s", acc.Layers.full_s);
      ("simulate.replay_s", acc.Layers.replay_s);
      ( "simulate.minstr_s",
        Stats.ratio (float_of_int acc.Layers.instrs /. 1e6) acc.Layers.full_s );
      ("simulate.timing_share", Layers.timing_share acc);
      ("trace.overhead_s", overhead);
      ("trace.unattributed_s", unattributed);
    ]
    @ serve_values
  in
  let values =
    values
    @ List.filter_map
        (fun (n, _) -> if List.mem_assoc n values then None else Some (n, 0.0))
        Metrics.per_layer
  in
  let attempted = plain.requests + rep.requests in
  let failed = bad + plain.faults + rep.faults in
  (bad = 0 && failed = 0, max 1 attempted, failed, values)

let bench args =
  let o = parse args in
  (* a daemon that goes away mid-write surfaces as EPIPE, not a kill *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  say "workload: %s (seed %d, %g s, trace %b)" o.name o.seed o.seconds o.trace;
  say "why: %s" (Inputs.why o.workload);
  Proc.remove_tree tmp_root;
  (try Unix.mkdir ".perfbench-tmp" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir tmp_root 0o755;
  let cleanup () =
    Serve_run.kill_all ();
    Proc.remove_tree tmp_root;
    try Unix.rmdir ".perfbench-tmp" with Unix.Unix_error _ -> ()
  in
  let correct, attempted, failed, values =
    Fun.protect ~finally:cleanup (fun () ->
        if o.trace then traced o else end_to_end o)
  in
  let table = if o.trace then Metrics.per_layer else Metrics.end_to_end in
  List.iter
    (fun (n, u) -> say "%-28s %14.6f %s" n (List.assoc n values) u)
    table;
  print_endline
    (T.json_to_string (Metrics.result_json ~correct ~attempted ~failed table values))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "serve" :: rest -> Serve_run.serve_main rest
  | "inputs" :: rest ->
    let o = parse rest in
    let k = ref 0 in
    for _ = 1 to 3 do
      say "rep %d: %s" !k (Inputs.describe (Inputs.rep o.workload ~seed:o.seed !k));
      incr k
    done
  | args -> bench args
