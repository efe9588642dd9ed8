(* The three case studies, wired to the evolution driver.

   A study picks which heuristic slot the genome occupies, the machine
   model, and whether simulated measurement noise is injected (the
   prefetching study ran on a real Itanium in the paper, so its fitness
   signal is noisy).  Fitness of a candidate on a benchmark is the paper's
   definition: execution-time speedup over the compiler's baseline
   heuristic on the training dataset.

   All candidate evaluation is routed through the batch Evaluator engine:
   one engine per (context, dataset), sharing the context's jobs and
   cache-dir settings, so evolution, the final measurements and
   cross-validation all benefit from the same canonicalization, caching
   and process pool. *)

type kind = Hyperblock_study | Regalloc_study | Prefetch_study | Sched_study

let kind_name = function
  | Hyperblock_study -> "hyperblock"
  | Regalloc_study -> "regalloc"
  | Prefetch_study -> "prefetch"
  | Sched_study -> "sched"

let machine_of = function
  | Hyperblock_study -> Machine.Config.table3
  | Sched_study -> Machine.Config.table3_narrow
  | Regalloc_study -> Machine.Config.table3_regalloc
  | Prefetch_study -> Machine.Config.itanium1

let feature_set_of = function
  | Hyperblock_study -> Hyperblock.Features.feature_set
  | Regalloc_study -> Regalloc.Features.feature_set
  | Prefetch_study -> Prefetch.Features.feature_set
  | Sched_study -> Sched.Priority.feature_set

let sort_of = function
  | Hyperblock_study | Regalloc_study | Sched_study -> `Real
  | Prefetch_study -> `Bool

let baseline_genome_of = function
  | Hyperblock_study -> Hyperblock.Baseline.genome
  | Regalloc_study -> Regalloc.Features.baseline_genome
  | Prefetch_study -> Prefetch.Features.baseline_genome
  | Sched_study -> Sched.Priority.baseline_genome

(* Noise amplitude for the prefetch study: +/-1.5% multiplicative, well
   below attainable speedups, as the paper requires of a usable fitness
   signal. *)
let noise_of = function
  | Hyperblock_study | Regalloc_study | Sched_study -> None
  | Prefetch_study -> Some 0.015

let heuristics_with (kind : kind) (g : Gp.Expr.genome) : Compiler.heuristics =
  let base = Compiler.baseline ~prefetch:(kind = Prefetch_study) () in
  match (kind, g) with
  | (Hyperblock_study | Regalloc_study | Sched_study), Gp.Expr.Bool _
  | Prefetch_study, Gp.Expr.Real _ ->
    invalid_arg "Study.heuristics_with: genome sort mismatch"
  | Hyperblock_study, Gp.Expr.Real e -> { base with Compiler.hb_priority = e }
  | Regalloc_study, Gp.Expr.Real e -> { base with Compiler.ra_savings = e }
  | Sched_study, Gp.Expr.Real e -> { base with Compiler.sched_priority = e }
  | Prefetch_study, Gp.Expr.Bool e ->
    { base with Compiler.pf_confidence = Some e }

(* --- Run configuration ---------------------------------------------------- *)

(* One record for everything an experiment run shares: GP scale, machine
   override, pool shape, caches, supervision, and the two
   reference-vs-fast switches.  Built in one place by the CLI; the
   legacy per-driver optional arguments are thin wrappers over this. *)
type config = {
  params : Gp.Params.t;
  machine : Machine.Config.t option;
  backend : Gp.Parmap.backend;
  jobs : int;
  cache_dir : string option;
  cache_shards : int;
  checkpoint_dir : string option;
  timeout_s : float option;
  retries : int;
  chunk_target_ms : float option;
  chunk_min : int option;
  chunk_max : int option;
  fast_sim : bool;
  compiled_eval : bool;
  remote : string option;  (* serve daemon socket path (--connect) *)
}

let default_config =
  {
    params = Gp.Params.scaled;
    machine = None;
    backend = `Fork;
    jobs = 1;
    cache_dir = None;
    cache_shards = Shardstore.default_shards;
    checkpoint_dir = None;
    timeout_s = None;
    retries = 1;
    chunk_target_ms = None;
    chunk_min = None;
    chunk_max = None;
    fast_sim = true;
    compiled_eval = true;
    remote = None;
  }

(* Legacy optional-argument prefix -> config, for the deprecated driver
   wrappers below. *)
let config_of ?params ?machine ?jobs ?cache_dir ?timeout_s ?retries
    ?checkpoint_dir ?fast_sim () =
  let d = default_config in
  {
    params = Option.value ~default:d.params params;
    machine;
    backend = d.backend;
    jobs = Option.value ~default:d.jobs jobs;
    cache_dir;
    cache_shards = d.cache_shards;
    checkpoint_dir;
    timeout_s;
    retries = Option.value ~default:d.retries retries;
    chunk_target_ms = d.chunk_target_ms;
    chunk_min = d.chunk_min;
    chunk_max = d.chunk_max;
    fast_sim = Option.value ~default:d.fast_sim fast_sim;
    compiled_eval = d.compiled_eval;
    remote = d.remote;
  }

(* --- Served evaluation (metaopt serve) ------------------------------------ *)

(* The study shape a client ships to the evaluation daemon: enough for
   the far side to rebuild the identical evaluation closure.  The
   resolved machine rides along whole (it is pure data) so a --machine
   override on the client is honored by the daemon's workers. *)
type remote_desc = {
  rd_kind : kind;
  rd_benches : string list;
  rd_machine : Machine.Config.t;
  rd_fast_sim : bool;
  rd_compiled_eval : bool;
}

type remote_handle = {
  rh_eval : Benchmarks.Bench.dataset -> Evaluator.remote;
  rh_close : unit -> unit;
}

(* The serve client lives above this library (it needs studies to
   describe itself); it injects its dialer here at startup.  [Study]
   itself never dials — with no dialer registered, [remote] configs
   fail loudly. *)
let remote_dialer : (socket:string -> remote_desc -> remote_handle) option ref
    =
  ref None

let set_remote_dialer d = remote_dialer := Some d

let dial_remote ~socket desc =
  match !remote_dialer with
  | Some d -> d ~socket desc
  | None ->
    failwith
      "Study: config.remote is set but no serve client is registered \
       (Serve.Client.register () installs the dialer)"

(* --- Evaluation context -------------------------------------------------- *)

type context = {
  kind : kind;
  machine : Machine.Config.t;
  compiled_eval : bool;
  prepared : Compiler.prepared array;
  (* Baseline results per (case, dataset): cycles and output checksum. *)
  baseline_train : (float * int) array;
  baseline_novel : (float * int) array;
  eval_train : Evaluator.t;
  eval_novel : Evaluator.t;
  sim : Simcache.t;
  remote : remote_handle option;
}

let noise_rng_of kind genome case =
  match noise_of kind with
  | None -> None
  | Some amp ->
    (* Deterministic per (genome, case) so memoized fitnesses are stable,
       but different candidates see different noise draws.  The Evaluator
       always passes the canonical genome here, which keeps the draw
       independent of evaluation order and worker count. *)
    let seed = Hashtbl.hash (genome, case) in
    Some (Random.State.make [| seed |], amp)

(* The compile, simulate and replay spans land in the [study.compile_s] /
   [study.simulate_s] / [study.replay_s] histograms.  In a supervised
   (forked) pool they are recorded in the worker and die with it — the
   parent-side per-task latency from [Gp.Parmap] covers that path
   instead; the sequential path (tests, [-j 1], bench report) gets the
   full split.

   Simulation goes through the [Simcache] fast paths: artifact-identical
   compilations share one noise-free measurement, and schedule-only
   variations replay the recorded event trace.  The noise jitter is
   layered on top here, per (genome, case), with the exact float
   operations the direct simulation would perform — so sharing is sound
   under noise and a candidate whose artifact equals the baseline's
   scores speedup exactly 1.0 in the noise-free studies. *)
let run_raw ?(compiled_eval = true) ~kind ~machine
    ~(prepared : Compiler.prepared array) ~(sim : Simcache.t)
    (g : Gp.Expr.genome) ~case ~(dataset : Benchmarks.Bench.dataset) :
    float * int =
  let p = prepared.(case) in
  let compiled =
    Gp.Telemetry.span "study.compile_s" (fun () ->
        Compiler.compile ~compiled_eval ~machine
          ~heuristics:(heuristics_with kind g) p)
  in
  let res = Simcache.simulate sim ~machine ~dataset p compiled in
  let noise = noise_rng_of kind g case in
  ( Machine.Simulate.jittered ?noise res.Machine.Simulate.cycles,
    res.Machine.Simulate.checksum )

(* Speedup over a precomputed baseline.  A candidate whose compiled
   program produces different output than the baseline is a
   compiler-correctness bug; it receives fitness 0 so evolution discards
   it (the paper: "Our system can also be used to uncover bugs!"). *)
let speedup_against ?compiled_eval ~kind ~machine ~prepared ~sim ~baselines g
    ~case ~dataset =
  let base_cycles, base_sum = baselines.(case) in
  let cycles, sum =
    run_raw ?compiled_eval ~kind ~machine ~prepared ~sim g ~case ~dataset
  in
  if sum <> base_sum then begin
    Logs.warn (fun m ->
        m "candidate heuristic broke %s (checksum mismatch)"
          prepared.(case).Compiler.bench.Benchmarks.Bench.name);
    0.0
  end
  else if cycles <= 0.0 then 0.0
  else base_cycles /. cycles

(* The leading passes a study never varies: every candidate runs them
   with the baseline heuristics.  The hyperblock and prefetch studies
   evolve the first pass that does any work, so they have none. *)
let fixed_prefix_of = function
  | Sched_study -> Some Compiler.Through_regalloc
  | Regalloc_study -> Some Compiler.Through_hyperblock
  | Hyperblock_study | Prefetch_study -> None

(* The one preparation path of local contexts and daemon services, so a
   served evaluation compiles from exactly what a local one would.  The
   prefetching study compiles without unrolling (ORC's prefetch phase
   runs on clean loop nests; unrolled loops defeat the induction-variable
   analysis exactly as they would ORC's).  With the fast paths on, each
   benchmark also gets its compile-prefix snapshot, built here — in the
   parent, before any pool exists — so fork workers inherit it and
   domains share it read-only. *)
let prepare_all ~fast_sim ~compiled_eval ~kind ~machine bench_names =
  let opt_config =
    match kind with
    | Prefetch_study -> Opt.Pipeline.no_unroll
    | Hyperblock_study | Regalloc_study | Sched_study -> Opt.Pipeline.default
  in
  let heuristics = heuristics_with kind (baseline_genome_of kind) in
  Array.of_list
    (List.map
       (fun n ->
         let p = Compiler.prepare ~opt_config (Benchmarks.Registry.find n) in
         match fixed_prefix_of kind with
         | Some upto when fast_sim ->
           Gp.Telemetry.span "study.prefix_s" (fun () ->
               Compiler.with_snapshot ~compiled_eval ~machine ~heuristics
                 ~upto p)
         | Some _ | None -> p)
       bench_names)

let dataset_name = function
  | Benchmarks.Bench.Train -> "train"
  | Benchmarks.Bench.Novel -> "novel"

(* --- Daemon-side evaluation service --------------------------------------- *)

type service = {
  svc_n_cases : int;
  svc_case_name : int -> string;
  svc_eval : Benchmarks.Bench.dataset -> Gp.Expr.genome -> int -> float;
}

(* Build the evaluation closure a daemon worker runs for one study
   shape: prepared benches, sequential baselines, and the exact
   [speedup_against] pipeline a local context's engines dispatch —
   called with the client's canonical genome, never re-canonicalized, so
   a served result is bit-identical to the local one.  Baselines here
   are sequential: the caller IS a pool worker (or lazily building in
   the daemon parent) and must not nest pools. *)
let service_of ?machine:machine_override ?(fast_sim = true)
    ?(compiled_eval = true) (kind : kind) (bench_names : string list) :
    service =
  let machine = Option.value ~default:(machine_of kind) machine_override in
  let sim = Simcache.create ~enabled:fast_sim () in
  let prepared =
    prepare_all ~fast_sim ~compiled_eval ~kind ~machine bench_names
  in
  let base = baseline_genome_of kind in
  let baseline_for dataset =
    Array.init (Array.length prepared) (fun case ->
        run_raw ~compiled_eval ~kind ~machine ~prepared ~sim base ~case
          ~dataset)
  in
  let baseline_train = baseline_for Benchmarks.Bench.Train in
  let baseline_novel = baseline_for Benchmarks.Bench.Novel in
  {
    svc_n_cases = Array.length prepared;
    svc_case_name =
      (fun i -> prepared.(i).Compiler.bench.Benchmarks.Bench.name);
    svc_eval =
      (fun dataset g case ->
        let baselines =
          match dataset with
          | Benchmarks.Bench.Train -> baseline_train
          | Benchmarks.Bench.Novel -> baseline_novel
        in
        speedup_against ~compiled_eval ~kind ~machine ~prepared ~sim
          ~baselines g ~case ~dataset);
  }

let service_of_desc (d : remote_desc) =
  service_of ~machine:d.rd_machine ~fast_sim:d.rd_fast_sim
    ~compiled_eval:d.rd_compiled_eval d.rd_kind d.rd_benches

let create_with (cfg : config) (kind : kind) (bench_names : string list) :
    context =
  let machine = Option.value ~default:(machine_of kind) cfg.machine in
  let compiled_eval = cfg.compiled_eval in
  let sim = Simcache.create ~enabled:cfg.fast_sim () in
  let prepared =
    prepare_all ~fast_sim:cfg.fast_sim ~compiled_eval ~kind ~machine
      bench_names
  in
  let base = baseline_genome_of kind in
  let remote_h =
    Option.map
      (fun socket ->
        dial_remote ~socket
          {
            rd_kind = kind;
            rd_benches = bench_names;
            rd_machine = machine;
            rd_fast_sim = cfg.fast_sim;
            rd_compiled_eval = compiled_eval;
          })
      cfg.remote
  in
  (* In served mode this process does no candidate evaluation, so the
     baselines (cheap, one genome) are computed sequentially rather
     than spinning up a local pool just for them. *)
  let baseline_pool =
    match remote_h with
    | Some _ -> Gp.Parmap.pool ~backend:`Seq ~jobs:1 ()
    | None -> Gp.Parmap.pool ~backend:cfg.backend ~jobs:cfg.jobs ()
  in
  let baseline_for dataset =
    (* Parallel like any other batch; a failed cell (worker crash) is
       recomputed sequentially because baselines must exist. *)
    let cells =
      Gp.Parmap.run baseline_pool ~fallback:(Float.nan, 0)
        (fun case ->
          run_raw ~compiled_eval ~kind ~machine ~prepared ~sim base ~case
            ~dataset)
        (Array.init (Array.length prepared) Fun.id)
    in
    Array.mapi
      (fun case cell ->
        if Float.is_nan (fst cell) then
          run_raw ~compiled_eval ~kind ~machine ~prepared ~sim base ~case
            ~dataset
        else cell)
      cells
  in
  let baseline_train = baseline_for Benchmarks.Bench.Train in
  let baseline_novel = baseline_for Benchmarks.Bench.Novel in
  let evaluator_for baselines dataset =
    Evaluator.create ~backend:cfg.backend ~jobs:cfg.jobs
      ?cache_dir:(if remote_h = None then cfg.cache_dir else None)
      ~cache_shards:cfg.cache_shards ?timeout_s:cfg.timeout_s
      ~retries:cfg.retries ?chunk_target_ms:cfg.chunk_target_ms
      ?chunk_min:cfg.chunk_min ?chunk_max:cfg.chunk_max
      ?remote:(Option.map (fun h -> h.rh_eval dataset) remote_h)
      ~fs:(feature_set_of kind)
      ~scope:
        (Printf.sprintf "%s/%s/%s" (kind_name kind)
           machine.Machine.Config.name (dataset_name dataset))
      ~case_name:(fun i ->
        prepared.(i).Compiler.bench.Benchmarks.Bench.name)
      ~eval:(fun g case ->
        speedup_against ~compiled_eval ~kind ~machine ~prepared ~sim
          ~baselines g ~case ~dataset)
      ()
  in
  {
    kind;
    machine;
    compiled_eval;
    prepared;
    baseline_train;
    baseline_novel;
    eval_train = evaluator_for baseline_train Benchmarks.Bench.Train;
    eval_novel = evaluator_for baseline_novel Benchmarks.Bench.Novel;
    sim;
    remote = remote_h;
  }

let create ?machine ?(jobs = 1) ?cache_dir ?timeout_s ?retries
    ?(fast_sim = true) (kind : kind) (bench_names : string list) : context =
  create_with
    (config_of ?machine ~jobs ?cache_dir ?timeout_s ?retries ~fast_sim ())
    kind bench_names

let evaluator_of (ctx : context) = function
  | Benchmarks.Bench.Train -> ctx.eval_train
  | Benchmarks.Bench.Novel -> ctx.eval_novel

let faults (ctx : context) =
  Evaluator.merge_faults
    (Evaluator.faults ctx.eval_train)
    (Evaluator.faults ctx.eval_novel)

(* Shut down the persistent worker pools behind both dataset engines.
   The experiment drivers below call this on every exit path; contexts
   handed out by [create_with] directly are the caller's to close.  Safe
   to call twice, and a context remains usable afterwards (the next
   supervised batch spawns a fresh pool). *)
let close (ctx : context) =
  Evaluator.shutdown ctx.eval_train;
  Evaluator.shutdown ctx.eval_novel;
  (* Closing the served connection is equally non-final: the client
     handle redials on the next batch. *)
  Option.iter (fun h -> h.rh_close ()) ctx.remote

(* A raw, uncached single measurement (diagnostics and tests).  Note the
   noise draw is keyed on the genome exactly as given; the cached engines
   canonicalize first. *)
let speedup (ctx : context) (g : Gp.Expr.genome) ~case
    ~(dataset : Benchmarks.Bench.dataset) : float =
  let baselines =
    match dataset with
    | Benchmarks.Bench.Train -> ctx.baseline_train
    | Benchmarks.Bench.Novel -> ctx.baseline_novel
  in
  speedup_against ~compiled_eval:ctx.compiled_eval ~kind:ctx.kind
    ~machine:ctx.machine ~prepared:ctx.prepared ~sim:ctx.sim ~baselines g
    ~case ~dataset

let problem_of (ctx : context) : Gp.Evolve.problem =
  {
    Gp.Evolve.fs = feature_set_of ctx.kind;
    sort = sort_of ctx.kind;
    baseline = Some (baseline_genome_of ctx.kind);
    n_cases = Array.length ctx.prepared;
    case_name =
      (fun i -> ctx.prepared.(i).Compiler.bench.Benchmarks.Bench.name);
    evaluator = Evaluator.evolve_evaluator ctx.eval_train;
  }

(* --- Experiment drivers --------------------------------------------------- *)

(* Measure one fixed genome on every case of both datasets, through the
   cached engines (the train row is usually a cache hit from evolution's
   final scoring). *)
let measure_rows (ctx : context) (g : Gp.Expr.genome) :
    (string * float * float) list =
  let cases = List.init (Array.length ctx.prepared) Fun.id in
  let train = (Evaluator.evaluate_batch ctx.eval_train [| g |] ~cases).(0) in
  let novel = (Evaluator.evaluate_batch ctx.eval_novel [| g |] ~cases).(0) in
  List.map
    (fun i ->
      ( ctx.prepared.(i).Compiler.bench.Benchmarks.Bench.name,
        train.(i),
        novel.(i) ))
    cases

type specialization = {
  bench : string;
  train_speedup : float;
  novel_speedup : float;
  best_expr : string;
  history : Gp.Evolve.generation_stats list;
  faults : Evaluator.fault_stats;
}

(* One [kind = "run_summary"] record per experiment driver call: the
   aggregate a run's JSONL stream is read backwards from. *)
let emit_run_summary ~driver ~kind ~benches ~ctx ~elapsed_s ~evaluations
    ~best_expr ~best_fitness =
  if Gp.Telemetry.enabled () then begin
    let f = faults ctx in
    let merge_cache (a : Evaluator.cache_stats) (b : Evaluator.cache_stats) =
      Evaluator.
        {
          memo_hits = a.memo_hits + b.memo_hits;
          disk_hits = a.disk_hits + b.disk_hits;
          misses = a.misses + b.misses;
        }
    in
    let cs =
      merge_cache
        (Evaluator.cache_stats ctx.eval_train)
        (Evaluator.cache_stats ctx.eval_novel)
    in
    Gp.Telemetry.emit ~kind:"run_summary"
      [
        ("driver", Gp.Telemetry.String driver);
        ("study", Gp.Telemetry.String (kind_name kind));
        ( "benches",
          Gp.Telemetry.List
            (List.map (fun b -> Gp.Telemetry.String b) benches) );
        ("elapsed_s", Gp.Telemetry.Float elapsed_s);
        ("evaluations", Gp.Telemetry.Int evaluations);
        ("memo_hits", Gp.Telemetry.Int cs.Evaluator.memo_hits);
        ("disk_hits", Gp.Telemetry.Int cs.Evaluator.disk_hits);
        ("misses", Gp.Telemetry.Int cs.Evaluator.misses);
        ("faults_crashed", Gp.Telemetry.Int f.crashed);
        ("faults_timed_out", Gp.Telemetry.Int f.timed_out);
        ("faults_gave_up", Gp.Telemetry.Int f.gave_up);
        ("faults_retried", Gp.Telemetry.Int f.retried);
        (* Where the sequential-path time went: heuristic-dependent
           compilation, the one-time compile prefixes it starts from,
           full simulation and trace replay, plus the simulation-sharing
           counters. *)
        ( "compile_s",
          Gp.Telemetry.Float
            (Gp.Telemetry.Histogram.sum (Gp.Telemetry.histogram "study.compile_s")) );
        ( "prefix_s",
          Gp.Telemetry.Float
            (Gp.Telemetry.Histogram.sum (Gp.Telemetry.histogram "study.prefix_s")) );
        ( "simulate_s",
          Gp.Telemetry.Float
            (Gp.Telemetry.Histogram.sum (Gp.Telemetry.histogram "study.simulate_s")) );
        ( "replay_s",
          Gp.Telemetry.Float
            (Gp.Telemetry.Histogram.sum (Gp.Telemetry.histogram "study.replay_s")) );
        ( "artifact_hits",
          Gp.Telemetry.Int (Simcache.stats ctx.sim).Simcache.artifact_hits );
        ("replayed", Gp.Telemetry.Int (Simcache.stats ctx.sim).Simcache.replays);
        ( "simulations",
          Gp.Telemetry.Int (Simcache.stats ctx.sim).Simcache.simulations );
        ("best_fitness", Gp.Telemetry.Float best_fitness);
        ("best_expr", Gp.Telemetry.String best_expr);
      ]
  end

(* Figure 4 / 9 / 13: evolve a priority function for one benchmark, then
   measure on the training and the novel datasets. *)
let specialize_with ?on_generation (cfg : config) (kind : kind)
    (bench : string) : specialization =
  let t0 = if Gp.Telemetry.enabled () then Gp.Telemetry.now_s () else 0.0 in
  let ctx = create_with cfg kind [ bench ] in
  Fun.protect
    ~finally:(fun () -> close ctx)
    (fun () ->
      let result =
        Gp.Evolve.run ~params:cfg.params ?on_generation
          ?checkpoint_dir:cfg.checkpoint_dir (problem_of ctx)
      in
      let train_speedup =
        Evaluator.evaluate ctx.eval_train result.Gp.Evolve.best 0
      in
      let novel_speedup =
        Evaluator.evaluate ctx.eval_novel result.Gp.Evolve.best 0
      in
      let best_expr =
        Gp.Sexp.to_string (feature_set_of kind)
          (Gp.Simplify.genome result.Gp.Evolve.best)
      in
      emit_run_summary ~driver:"specialize" ~kind ~benches:[ bench ] ~ctx
        ~elapsed_s:
          (if Gp.Telemetry.enabled () then Gp.Telemetry.now_s () -. t0 else 0.0)
        ~evaluations:result.Gp.Evolve.evaluations ~best_expr
        ~best_fitness:result.Gp.Evolve.best_fitness;
      {
        bench;
        train_speedup;
        novel_speedup;
        best_expr;
        history = result.Gp.Evolve.history;
        faults = faults ctx;
      })

let specialize ?params ?jobs ?cache_dir ?timeout_s ?retries ?checkpoint_dir
    ?on_generation ?fast_sim (kind : kind) (bench : string) : specialization =
  specialize_with ?on_generation
    (config_of ?params ?jobs ?cache_dir ?timeout_s ?retries ?checkpoint_dir
       ?fast_sim ())
    kind bench

type general = {
  best : Gp.Expr.genome;
  best_expr : string;
  train_rows : (string * float * float) list;  (* bench, train, novel *)
  history : Gp.Evolve.generation_stats list;
  faults : Evaluator.fault_stats;
}

(* Figure 6 / 11 / 15: evolve one priority function over a training suite
   with DSS, then measure every training benchmark on both datasets. *)
let evolve_general_with ?on_generation (cfg : config) (kind : kind)
    (benches : string list) : general =
  let t0 = if Gp.Telemetry.enabled () then Gp.Telemetry.now_s () else 0.0 in
  let ctx = create_with cfg kind benches in
  Fun.protect
    ~finally:(fun () -> close ctx)
    (fun () ->
      let result =
        Gp.Evolve.run ~params:cfg.params ?on_generation
          ?checkpoint_dir:cfg.checkpoint_dir (problem_of ctx)
      in
      let best_expr =
        Gp.Sexp.to_string (feature_set_of kind)
          (Gp.Simplify.genome result.Gp.Evolve.best)
      in
      let train_rows = measure_rows ctx result.Gp.Evolve.best in
      emit_run_summary ~driver:"evolve_general" ~kind ~benches ~ctx
        ~elapsed_s:
          (if Gp.Telemetry.enabled () then Gp.Telemetry.now_s () -. t0 else 0.0)
        ~evaluations:result.Gp.Evolve.evaluations ~best_expr
        ~best_fitness:result.Gp.Evolve.best_fitness;
      {
        best = result.Gp.Evolve.best;
        best_expr;
        train_rows;
        history = result.Gp.Evolve.history;
        faults = faults ctx;
      })

let evolve_general ?params ?jobs ?cache_dir ?timeout_s ?retries
    ?checkpoint_dir ?on_generation ?fast_sim (kind : kind)
    (benches : string list) : general =
  evolve_general_with ?on_generation
    (config_of ?params ?jobs ?cache_dir ?timeout_s ?retries ?checkpoint_dir
       ?fast_sim ())
    kind benches

(* Figure 7 / 12 / 16: apply a fixed evolved priority function to a suite
   it was not trained on.  [cfg.params] and [cfg.checkpoint_dir] are
   ignored; no evolution happens here. *)
let cross_validate_with (cfg : config) (kind : kind) (g : Gp.Expr.genome)
    (benches : string list) : (string * float * float) list =
  let ctx = create_with cfg kind benches in
  Fun.protect ~finally:(fun () -> close ctx) (fun () -> measure_rows ctx g)

let cross_validate ?params ?jobs ?cache_dir ?timeout_s ?retries ?machine
    ?fast_sim (kind : kind) (g : Gp.Expr.genome) (benches : string list) :
    (string * float * float) list =
  cross_validate_with
    (config_of ?params ?machine ?jobs ?cache_dir ?timeout_s ?retries
       ?fast_sim ())
    kind g benches
