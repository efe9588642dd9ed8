(* The full compilation pipeline, parameterized by the three heuristics
   under study.  Mirrors the Trimaran setup of the paper: classic scalar
   optimizations and unrolling, profiling, hyperblock formation, register
   allocation, optional data prefetching, VLIW scheduling, and trace-driven
   simulation. *)

type heuristics = {
  hb_priority : Gp.Expr.rexpr;       (* hyperblock path priority *)
  ra_savings : Gp.Expr.rexpr;        (* regalloc per-block savings *)
  pf_confidence : Gp.Expr.bexpr option;  (* None = prefetching disabled *)
  sched_priority : Gp.Expr.rexpr;    (* list-scheduling rank (extension) *)
}

let baseline ?(prefetch = false) () : heuristics =
  {
    hb_priority = Hyperblock.Baseline.expr;
    ra_savings = Regalloc.Features.baseline_expr;
    pf_confidence =
      (if prefetch then Some Prefetch.Features.baseline_expr else None);
    sched_priority = Sched.Priority.baseline_expr;
  }

(* The passes before scheduling, in pipeline order, that a compile-prefix
   snapshot can stop after. *)
type stage = Through_hyperblock | Through_regalloc

(* The program after a leading run of passes whose heuristics a study
   holds fixed, with those passes' statistics and everything their output
   depended on. *)
type snapshot = {
  sn_upto : stage;
  sn_machine : Machine.Config.t;
  sn_hb_config : Hyperblock.Form.config;
  sn_compiled_eval : bool;
  sn_heuristics : heuristics;
  sn_prog : Ir.Func.program;
  sn_prefetches : Prefetch.Insert.stats;
  sn_hb_stats : Hyperblock.Form.stats;
  sn_spills : int;  (* 0 when [sn_upto] stops before regalloc *)
}

(* A benchmark after the heuristic-independent work: lowering, scalar
   optimization, and profiling on the training dataset.  Shared across all
   candidate heuristics: each compile copies [optimized], or the
   snapshot's program when one applies. *)
type prepared = {
  bench : Benchmarks.Bench.t;
  optimized : Ir.Func.program;
  prof : Profile.Prof.t;
  snapshot : snapshot option;
}

let prepare ?(opt_config = Opt.Pipeline.default) (bench : Benchmarks.Bench.t) :
    prepared =
  let prog = Frontend.Minic.compile bench.Benchmarks.Bench.source in
  Opt.Pipeline.run ~config:opt_config prog;
  let layout = Profile.Layout.prepare prog in
  let prof =
    Profile.Prof.collect ~overrides:bench.Benchmarks.Bench.train layout
  in
  { bench; optimized = prog; prof; snapshot = None }

type compiled = {
  prog : Ir.Func.program;
  layout : Profile.Layout.t;
  schedule_cycles : int array;
  hb_stats : Hyperblock.Form.stats;
  spills : int;
  prefetches : Prefetch.Insert.stats;
}

let run_regalloc ~compiled ~machine (heuristics : heuristics) prog =
  Regalloc.Alloc.run
    ~savings_batch:
      (Regalloc.Alloc.savings_batch_of_expr ~compiled heuristics.ra_savings)
    ~machine prog

(* The passes before scheduling, on a fresh copy of [p.optimized]:
   program, prefetch stats, hyperblock stats, spills (0 when [upto] stops
   before regalloc). *)
let run_prefix ~hb_config ~compiled ~machine ~(heuristics : heuristics)
    ~upto (p : prepared) =
  let prog = Ir.Func.copy_program p.optimized in
  (* Prefetch insertion runs first (mirroring ORC, where prefetching is an
     early loop-nest phase): induction-variable analysis sees clean loop
     structure, and inserted prefetches then flow through if-conversion,
     allocation and scheduling like any other instruction. *)
  (* Both the compiled and the walker paths batch per function: the
     batched entry points take the same per-point interpreter when
     [compiled] is off, so toggling [compiled_eval] compares evaluators,
     not pass structure — and both are bit-identical anyway. *)
  let prefetches =
    match heuristics.pf_confidence with
    | None -> { Prefetch.Insert.candidates = 0; inserted = 0 }
    | Some conf ->
      Prefetch.Insert.run_batched
        ~decision_batch:
          (Prefetch.Insert.decision_batch_of_expr ~compiled ~machine prog conf)
        prog
  in
  let hb_stats =
    Hyperblock.Form.run ~config:hb_config ~compiled ~machine ~prof:p.prof
      ~priority:heuristics.hb_priority prog
  in
  let spills =
    match upto with
    | Through_hyperblock -> 0
    | Through_regalloc -> run_regalloc ~compiled ~machine heuristics prog
  in
  (prog, prefetches, hb_stats, spills)

let with_snapshot ?(compiled_eval = true) ~(machine : Machine.Config.t)
    ~(heuristics : heuristics) ~(upto : stage) (p : prepared) : prepared =
  let hb_config = Hyperblock.Form.default_config in
  let prog, prefetches, hb_stats, spills =
    run_prefix ~hb_config ~compiled:compiled_eval ~machine ~heuristics ~upto p
  in
  {
    p with
    snapshot =
      Some
        {
          sn_upto = upto;
          sn_machine = machine;
          sn_hb_config = hb_config;
          sn_compiled_eval = compiled_eval;
          sn_heuristics = heuristics;
          sn_prog = prog;
          sn_prefetches = prefetches;
          sn_hb_stats = hb_stats;
          sn_spills = spills;
        };
  }

(* A snapshot stands in for its prefix only when everything that prefix
   read is structurally equal to what this compile would feed it. *)
let reusable s ~hb_config ~compiled_eval ~machine ~(heuristics : heuristics) =
  let h = s.sn_heuristics in
  s.sn_compiled_eval = compiled_eval
  && s.sn_machine = machine
  && s.sn_hb_config = hb_config
  && h.pf_confidence = heuristics.pf_confidence
  && h.hb_priority = heuristics.hb_priority
  && (s.sn_upto = Through_hyperblock || h.ra_savings = heuristics.ra_savings)

let compile ?(hb_config = Hyperblock.Form.default_config)
    ?(compiled_eval = true) ~(machine : Machine.Config.t)
    ~(heuristics : heuristics) (p : prepared) : compiled =
  let compiled = compiled_eval in
  let prog, prefetches, hb_stats, spills =
    match p.snapshot with
    | Some s when reusable s ~hb_config ~compiled_eval ~machine ~heuristics ->
      (* Fresh register, predicate and instruction ids come from
         per-function counters that [copy_program] copies, so the suffix
         sees exactly the ids a from-scratch compile would hand it. *)
      let prog = Ir.Func.copy_program s.sn_prog in
      let spills =
        match s.sn_upto with
        | Through_regalloc -> s.sn_spills
        | Through_hyperblock -> run_regalloc ~compiled ~machine heuristics prog
      in
      (prog, s.sn_prefetches, s.sn_hb_stats, spills)
    | Some _ | None ->
      run_prefix ~hb_config ~compiled ~machine ~heuristics
        ~upto:Through_regalloc p
  in
  (* The baseline ranking skips the expression interpreter. *)
  let sched_pri =
    if heuristics.sched_priority = Sched.Priority.baseline_expr then
      Sched.Priority.baseline
    else Sched.Priority.of_expr ~compiled heuristics.sched_priority
  in
  (* The scheduler emits lengths in the same traversal order Layout.prepare
     assigns block uids, so the array needs no per-candidate label hashing. *)
  let schedule_cycles =
    Sched.List_sched.schedule_program_cycles ~priority:sched_pri
      ~config:machine prog
  in
  let layout = Profile.Layout.prepare prog in
  assert (Array.length schedule_cycles = layout.Profile.Layout.n_blocks);
  { prog; layout; schedule_cycles; hb_stats; spills; prefetches }

let simulate ?noise ~(machine : Machine.Config.t)
    ~(dataset : Benchmarks.Bench.dataset) (p : prepared) (c : compiled) :
    Machine.Simulate.result =
  Machine.Simulate.run ?noise ~config:machine
    ~schedule_cycles:c.schedule_cycles
    ~overrides:(Benchmarks.Bench.overrides p.bench dataset)
    c.layout
