(* Per-layer costs of one traced run, from re-evaluating the run's
   distinct misses sequentially in this process.

   Every compile pass is timed by calling the passes' public entry points
   in [Compiler.compile]'s order; the artifact is then checked equal to
   [Compiler.compile]'s own.  Simulation goes through a fresh
   [Simcache], in the order the run's engines met the misses (baselines
   first), so on a sequential run its counters repeat the run's own.  The
   fitness each re-evaluation computes must equal, bit for bit, the value
   the run's engine answered. *)

module S = Driver.Study
module C = Driver.Compiler

type acc = {
  mutable compiles : int;
  mutable hb_regions : int;
  mutable spills : int;
  mutable prefetches : int;
  mutable sim_calls : int;
  mutable hits : int;
  mutable replays : int;
  mutable sims : int;
  mutable full_s : float;
  mutable replay_s : float;
  mutable instrs : int;  (* dynamic instructions of the full simulations *)
  mutable task_work_s : float;  (* compile + simulate of the misses *)
  mutable probes : (Machine.Config.t * int array * (string * float array) list
                   * Profile.Layout.t) list;
  mutable mismatches : int;
}

let create () =
  { compiles = 0; hb_regions = 0; spills = 0; prefetches = 0; sim_calls = 0;
    hits = 0; replays = 0; sims = 0; full_s = 0.0; replay_s = 0.0; instrs = 0;
    task_work_s = 0.0; probes = []; mismatches = 0 }

(* Full simulations kept for the interpreter-versus-timing-model probe. *)
let max_probes = 6

let now = Unix.gettimeofday

(* [Compiler.compile] (compiled evaluation, default hyperblock config),
   one span per pass. *)
let compile sp ~machine ~(heuristics : C.heuristics) (p : C.prepared) :
    C.compiled =
  let pass name f = Span.with_span sp name f in
  let prog = pass "compile.copy" (fun () -> Ir.Func.copy_program p.C.optimized) in
  let prefetches =
    pass "compile.prefetch" (fun () ->
        match heuristics.C.pf_confidence with
        | None -> { Prefetch.Insert.candidates = 0; inserted = 0 }
        | Some conf ->
          Prefetch.Insert.run_batched
            ~decision_batch:
              (Prefetch.Insert.decision_batch_of_expr ~compiled:true ~machine
                 prog conf)
            prog)
  in
  let hb_stats =
    pass "compile.hyperblock" (fun () ->
        Hyperblock.Form.run ~config:Hyperblock.Form.default_config
          ~compiled:true ~machine ~prof:p.C.prof
          ~priority:heuristics.C.hb_priority prog)
  in
  let spills =
    pass "compile.regalloc" (fun () ->
        Regalloc.Alloc.run
          ~savings_batch:
            (Regalloc.Alloc.savings_batch_of_expr ~compiled:true
               heuristics.C.ra_savings)
          ~machine prog)
  in
  let schedule_cycles =
    pass "compile.sched" (fun () ->
        let priority =
          if heuristics.C.sched_priority = Sched.Priority.baseline_expr then
            Sched.Priority.baseline
          else Sched.Priority.of_expr ~compiled:true heuristics.C.sched_priority
        in
        Sched.List_sched.schedule_program_cycles ~priority ~config:machine prog)
  in
  let layout = pass "compile.layout" (fun () -> Profile.Layout.prepare prog) in
  { C.prog; layout; schedule_cycles; hb_stats; spills; prefetches }

let same_artifact ~dataset p (a : C.compiled) (b : C.compiled) =
  a.C.schedule_cycles = b.C.schedule_cycles
  && a.C.hb_stats = b.C.hb_stats && a.C.spills = b.C.spills
  && a.C.prefetches = b.C.prefetches
  && Driver.Simcache.trace_key ~dataset p a = Driver.Simcache.trace_key ~dataset p b

type ctx = {
  kind : S.kind;
  prepare_s : float;
  machine : Machine.Config.t;
  prepared : C.prepared array;
  sim : Driver.Simcache.t;
  mutable base_train : (float * int) array;
  mutable base_novel : (float * int) array;
}

(* The study's measurement noise, drawn exactly as the study draws it:
   keyed on the genome as evaluated and the case. *)
let noise kind genome case =
  Option.map
    (fun amp -> (Random.State.make [| Hashtbl.hash (genome, case) |], amp))
    (S.noise_of kind)

(* One compile-and-simulate cycle: cycles (with noise) and checksum. *)
let measure sp acc c genome ~case ~dataset =
  let p = c.prepared.(case) in
  let machine = c.machine in
  let heuristics = S.heuristics_with c.kind genome in
  let t0 = now () in
  let compiled = Span.with_span sp "compile" (fun () -> compile sp ~machine ~heuristics p) in
  let t_compile = now () -. t0 in
  acc.compiles <- acc.compiles + 1;
  acc.hb_regions <- acc.hb_regions + compiled.C.hb_stats.Hyperblock.Form.regions_formed;
  acc.spills <- acc.spills + compiled.C.spills;
  acc.prefetches <- acc.prefetches + compiled.C.prefetches.Prefetch.Insert.inserted;
  Span.with_span sp "trace.check" (fun () ->
      if not (same_artifact ~dataset p compiled (C.compile ~machine ~heuristics p))
      then acc.mismatches <- acc.mismatches + 1);
  let st = Driver.Simcache.stats c.sim in
  let h0 = st.Driver.Simcache.artifact_hits and r0 = st.Driver.Simcache.replays in
  let dt = ref 0.0 in
  let res =
    Span.with_span sp "simcache" (fun () ->
        Span.with_span sp "simcache.keys" (fun () ->
            ignore
              (Driver.Simcache.artifact_key ~machine
                 (Driver.Simcache.trace_key ~dataset p compiled)
                 compiled.C.schedule_cycles));
        (* the call itself, without the key digests timed above *)
        let t1 = now () in
        let res =
          Span.with_span sp "simcache.simulate" (fun () ->
              Driver.Simcache.simulate c.sim ~machine ~dataset p compiled)
        in
        dt := now () -. t1;
        res)
  in
  let dt = !dt in
  acc.sim_calls <- acc.sim_calls + 1;
  if st.Driver.Simcache.artifact_hits > h0 then acc.hits <- acc.hits + 1
  else if st.Driver.Simcache.replays > r0 then begin
    acc.replays <- acc.replays + 1;
    acc.replay_s <- acc.replay_s +. dt
  end
  else begin
    acc.sims <- acc.sims + 1;
    acc.full_s <- acc.full_s +. dt;
    acc.instrs <- acc.instrs + res.Machine.Simulate.dynamic_instrs;
    if List.length acc.probes < max_probes then
      acc.probes <-
        ( machine, compiled.C.schedule_cycles,
          Benchmarks.Bench.overrides p.C.bench dataset, compiled.C.layout )
        :: acc.probes
  end;
  ( Machine.Simulate.jittered ?noise:(noise c.kind genome case) res.Machine.Simulate.cycles,
    res.Machine.Simulate.checksum,
    t_compile +. dt )

(* Prepare and baseline a study shape as [Study.create_with] does,
   sequentially; [expected] baselines (from the run) are checked by
   bits. *)
let context sp acc ~kind ~machine ~benches ~expected =
  let t0 = now () in
  let prepared =
    Span.with_span sp "study.prepare" (fun () ->
        Array.of_list
          (List.map
             (fun n -> C.prepare ~opt_config:(Study_run.opt_config kind) (Benchmarks.Registry.find n))
             benches))
  in
  let c =
    { kind; prepare_s = now () -. t0; machine; prepared; sim = Driver.Simcache.create ();
      base_train = [||]; base_novel = [||] }
  in
  let base = S.baseline_genome_of kind in
  let baselines dataset =
    Array.init (Array.length prepared) (fun case ->
        let cy, sum, _ = measure sp acc c base ~case ~dataset in
        (cy, sum))
  in
  Span.with_span sp "study.baseline" (fun () ->
      c.base_train <- baselines Benchmarks.Bench.Train;
      c.base_novel <- baselines Benchmarks.Bench.Novel);
  let train, novel = expected in
  let check a b =
    Array.iteri
      (fun i (cy, sum) ->
        let cy', sum' = b.(i) in
        if not (Study_run.same_float cy cy' && sum = sum') then
          acc.mismatches <- acc.mismatches + 1)
      a
  in
  check c.base_train train;
  check c.base_novel novel;
  c

(* Re-evaluate one miss; the sanitized speedup must equal the run's. *)
let reevaluate sp acc c ~req (m : Study_run.miss) =
  Span.with_span sp ~req "eval.task" (fun () ->
      let bc, bsum =
        match m.Study_run.dataset with
        | Benchmarks.Bench.Train -> c.base_train.(m.Study_run.case)
        | Benchmarks.Bench.Novel -> c.base_novel.(m.Study_run.case)
      in
      let cy, sum, work =
        measure sp acc c m.Study_run.genome ~case:m.Study_run.case
          ~dataset:m.Study_run.dataset
      in
      acc.task_work_s <- acc.task_work_s +. work;
      let v =
        Driver.Evaluator.sanitize
          (if sum <> bsum then 0.0 else if cy <= 0.0 then 0.0 else bc /. cy)
      in
      if not (Study_run.same_float v m.Study_run.value) then
        acc.mismatches <- acc.mismatches + 1)

(* Interpreter alone versus interpreter plus timing model, on the same
   layouts: the share of simulation spent in the timing model. *)
let timing_share acc =
  let interp = ref 0.0 and full = ref 0.0 in
  List.iter
    (fun (config, schedule_cycles, overrides, layout) ->
      let t0 = now () in
      ignore (Profile.Interp.run ~overrides layout);
      let t1 = now () in
      ignore (Machine.Simulate.run ~config ~schedule_cycles ~overrides layout);
      let t2 = now () in
      interp := !interp +. (t1 -. t0);
      full := !full +. (t2 -. t1))
    acc.probes;
  if !full > 0.0 then 1.0 -. (!interp /. !full) else 0.0
