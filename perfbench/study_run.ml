(* One study, driven through the same public calls the library's own
   experiment drivers make ([Study.create_with], [Gp.Evolve.run] over
   [Study.problem_of], the final measurement batches, [Study.close]), so
   set-up, every evaluator batch and teardown can be timed on their own. *)

module S = Driver.Study
module E = Driver.Evaluator

type result = {
  best_expr : string;
  rows : (string * float * float) list;  (* bench, train, novel *)
  history : Gp.Evolve.generation_stats list;
}

(* A (canonical genome, case) pair the study's engines had to evaluate:
   the first request for it, with the answer the engine gave. *)
type miss = {
  bench : string;
  dataset : Benchmarks.Bench.dataset;
  genome : Gp.Expr.genome;
  case : int;
  value : float;
}

type run = {
  study : Inputs.study;
  result : result;
  wall_s : float;
  setup_s : float;
  requests : int;  (* (genome, case) requests answered, both datasets *)
  cache : E.cache_stats;
  faults : int;
  engine_s : float;
      (* compile, simulate and replay time the library's own telemetry
         recorded inside the batches; in-process evaluation only *)
  misses : miss list;  (* first-seen order; empty unless tracked *)
  worker_rss_mb : float;  (* largest pool worker's peak RSS; 0 without *)
  machine : Machine.Config.t;
  baselines : (float * int) array * (float * int) array;  (* train, novel *)
}

let now = Unix.gettimeofday

type tracker = {
  spans : Span.t;
  track : bool;
  mutable engine_s : float;
  mutable missed : miss list;  (* newest first *)
  seen : (Benchmarks.Bench.dataset * string * int, unit) Hashtbl.t;
}

(* Compile, simulate and replay seconds the library's telemetry has
   recorded so far; 0 with telemetry off. *)
let engine_histograms () =
  if not (Gp.Telemetry.enabled ()) then 0.0
  else
    List.fold_left
      (fun acc n -> acc +. Gp.Telemetry.Histogram.sum (Gp.Telemetry.histogram n))
      0.0
      [ "study.compile_s"; "study.simulate_s"; "study.replay_s" ]

(* One engine batch, as a span; when tracking, note each (canonical
   genome, case) pair the first time it is asked for.  A fresh engine
   with no store answers a pair from its memo only after evaluating it
   once, so these are exactly the engine's misses, in the order it
   evaluated them. *)
let batch tr ~fs ~case_name engine dataset genomes ~cases =
  let e0 = engine_histograms () in
  let out =
    Span.with_span tr.spans "evaluator.batch" (fun () ->
        E.evaluate_batch engine genomes ~cases)
  in
  tr.engine_s <- tr.engine_s +. engine_histograms () -. e0;
  if tr.track then
    Span.with_span tr.spans "trace.track" (fun () ->
        Array.iteri
          (fun i g ->
            let cg = Gp.Simplify.genome g in
            let key = Gp.Sexp.to_string fs cg in
            List.iteri
              (fun j case ->
                if not (Hashtbl.mem tr.seen (dataset, key, case)) then begin
                  Hashtbl.add tr.seen (dataset, key, case) ();
                  tr.missed <-
                    { bench = case_name case; dataset; genome = cg; case;
                      value = out.(i).(j) }
                    :: tr.missed
                end)
              cases)
          genomes);
  out

let sum_cache (a : E.cache_stats) (b : E.cache_stats) =
  E.
    {
      memo_hits = a.memo_hits + b.memo_hits;
      disk_hits = a.disk_hits + b.disk_hits;
      misses = a.misses + b.misses;
    }

let run ~spans ~track ?(worker_rss = false) (cfg : S.config)
    (s : Inputs.study) : run =
  let fs = S.feature_set_of s.Inputs.kind in
  let tr = { spans; track; engine_s = 0.0; missed = []; seen = Hashtbl.create 1024 } in
  let cfg = { cfg with S.params = s.Inputs.params } in
  Span.with_span spans "study" @@ fun () ->
  let t0 = now () in
  let ctx =
    Span.with_span spans "study.create" (fun () ->
        S.create_with cfg s.Inputs.kind s.Inputs.benches)
  in
  let setup_s = now () -. t0 in
  let case_name i =
    ctx.S.prepared.(i).Driver.Compiler.bench.Benchmarks.Bench.name
  in
  let eval ds = batch tr ~fs ~case_name (S.evaluator_of ctx ds) ds in
  let rss = ref 0.0 in
  let close () =
    (* pool workers exit at close *)
    if worker_rss then rss := Proc.children_hwm_mb (Unix.getpid ());
    Span.with_span spans "study.close" (fun () -> S.close ctx)
  in
  let result =
    match
      let p = S.problem_of ctx in
      let problem =
        {
          p with
          Gp.Evolve.evaluator =
            { p.Gp.Evolve.evaluator with
              Gp.Evolve.evaluate_batch = eval Benchmarks.Bench.Train };
        }
      in
      let gens = cfg.S.params.Gp.Params.generations in
      let name_after g = if g + 1 < gens then "evolve.gen" else "evolve.final" in
      let evolved =
        Span.with_span spans "evolve.run" (fun () ->
            let cur = ref (Span.enter spans (name_after (-1))) in
            let on_generation (st : Gp.Evolve.generation_stats) =
              Span.leave spans !cur;
              cur := Span.enter spans (name_after st.Gp.Evolve.gen)
            in
            Fun.protect
              ~finally:(fun () -> Span.leave spans !cur)
              (fun () ->
                Gp.Evolve.run ~params:cfg.S.params ~on_generation problem))
      in
      let best = evolved.Gp.Evolve.best in
      let rows =
        Span.with_span spans "study.measure" (fun () ->
            match s.Inputs.benches with
            | [ bench ] ->
              (* Study.specialize_with's measurement *)
              let t = (eval Benchmarks.Bench.Train [| best |] ~cases:[ 0 ]).(0) in
              let n = (eval Benchmarks.Bench.Novel [| best |] ~cases:[ 0 ]).(0) in
              [ (bench, t.(0), n.(0)) ]
            | _ ->
              (* Study.evolve_general_with's measure_rows *)
              let cases = List.init (Array.length ctx.S.prepared) Fun.id in
              let t = (eval Benchmarks.Bench.Train [| best |] ~cases).(0) in
              let n = (eval Benchmarks.Bench.Novel [| best |] ~cases).(0) in
              List.map (fun i -> (case_name i, t.(i), n.(i))) cases)
      in
      {
        best_expr = Gp.Sexp.to_string fs (Gp.Simplify.genome best);
        rows;
        history = evolved.Gp.Evolve.history;
      }
    with
    | r ->
      close ();
      r
    | exception e ->
      close ();
      raise e
  in
  let wall_s = now () -. t0 in
  let cache =
    sum_cache (E.cache_stats ctx.S.eval_train) (E.cache_stats ctx.S.eval_novel)
  in
  {
    study = s;
    result;
    wall_s;
    setup_s;
    requests = cache.E.memo_hits + cache.E.disk_hits + cache.E.misses;
    cache;
    faults = E.total_faults (S.faults ctx);
    engine_s = tr.engine_s;
    misses = List.rev tr.missed;
    worker_rss_mb = !rss;
    machine = ctx.S.machine;
    baselines = (ctx.S.baseline_train, ctx.S.baseline_novel);
  }

(* --- Correctness ------------------------------------------------------- *)

(* The same study through the library's own driver, sequentially and
   locally: the reference every workload's results must equal. *)
let reference (s : Inputs.study) : result =
  let cfg =
    { S.default_config with S.params = s.Inputs.params; backend = `Seq;
      jobs = 1 }
  in
  match s.Inputs.benches with
  | [ bench ] ->
    let r = S.specialize_with cfg s.Inputs.kind bench in
    {
      best_expr = r.S.best_expr;
      rows = [ (bench, r.S.train_speedup, r.S.novel_speedup) ];
      history = r.S.history;
    }
  | benches ->
    let g = S.evolve_general_with cfg s.Inputs.kind benches in
    { best_expr = g.S.best_expr; rows = g.S.train_rows; history = g.S.history }

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Number of differing items between two results, floats compared by
   their bits. *)
let mismatches (a : result) (b : result) =
  let row (n1, t1, v1) (n2, t2, v2) =
    if n1 = n2 && same_float t1 t2 && same_float v1 v2 then 0 else 1
  in
  let gen (x : Gp.Evolve.generation_stats) (y : Gp.Evolve.generation_stats) =
    if
      x.gen = y.gen
      && same_float x.best_fitness y.best_fitness
      && same_float x.mean_fitness y.mean_fitness
      && x.best_size = y.best_size && x.subset = y.subset
      && x.best_expr = y.best_expr
    then 0
    else 1
  in
  let pairwise f xs ys =
    if List.length xs <> List.length ys then 1 + abs (List.length xs - List.length ys)
    else List.fold_left2 (fun acc x y -> acc + f x y) 0 xs ys
  in
  (if a.best_expr = b.best_expr then 0 else 1)
  + pairwise row a.rows b.rows
  + pairwise gen a.history b.history


let opt_config = function
  | S.Prefetch_study -> Opt.Pipeline.no_unroll
  | S.Hyperblock_study | S.Regalloc_study | S.Sched_study -> Opt.Pipeline.default

(* Each baseline checksum the run's context held, against the reference
   engine on a fresh preparation of the same benchmark. *)
let baseline_mismatches (r : run) =
  let kind = r.study.Inputs.kind in
  let heuristics = S.heuristics_with kind (S.baseline_genome_of kind) in
  let train, novel = r.baselines in
  let bad = ref 0 in
  List.iteri
    (fun case name ->
      let p =
        Driver.Compiler.prepare ~opt_config:(opt_config kind)
          (Benchmarks.Registry.find name)
      in
      let c = Driver.Compiler.compile ~machine:r.machine ~heuristics p in
      List.iter
        (fun (dataset, (_, sum)) ->
          let res =
            Machine.Simulate.run ~engine:`Reference ~config:r.machine
              ~schedule_cycles:c.Driver.Compiler.schedule_cycles
              ~overrides:(Benchmarks.Bench.overrides p.Driver.Compiler.bench dataset)
              c.Driver.Compiler.layout
          in
          if res.Machine.Simulate.checksum <> sum then incr bad)
        [ (Benchmarks.Bench.Train, train.(case));
          (Benchmarks.Bench.Novel, novel.(case)) ])
    r.study.Inputs.benches;
  !bad
