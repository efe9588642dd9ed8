(* Golden equivalence suite for the simulation fast paths.

   The invariant under test: the pre-decoded interpreter, trace replay
   and artifact-keyed result sharing produce bit-identical cycles,
   checksums and dynamic counts to the reference tree-walking
   interpreter, across all four studies. *)

let check_bits name a b =
  Alcotest.(check int64) name (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_result name (a : Machine.Simulate.result)
    (b : Machine.Simulate.result) =
  check_bits (name ^ ": cycles") a.Machine.Simulate.cycles
    b.Machine.Simulate.cycles;
  Alcotest.(check int)
    (name ^ ": checksum")
    a.Machine.Simulate.checksum b.Machine.Simulate.checksum;
  Alcotest.(check int)
    (name ^ ": dynamic_instrs")
    a.Machine.Simulate.dynamic_instrs b.Machine.Simulate.dynamic_instrs;
  Alcotest.(check int)
    (name ^ ": branches")
    a.Machine.Simulate.branches b.Machine.Simulate.branches;
  Alcotest.(check int)
    (name ^ ": mispredicts")
    a.Machine.Simulate.mispredicts b.Machine.Simulate.mispredicts;
  Alcotest.(check (list (float 0.0)))
    (name ^ ": output")
    a.Machine.Simulate.output b.Machine.Simulate.output

(* Study kind -> (benches, machine, opt config) exactly as Study.create
   wires them. *)
let study_cases =
  [
    (Driver.Study.Hyperblock_study, [ "codrle4"; "rawcaudio" ]);
    (Driver.Study.Regalloc_study, [ "codrle4" ]);
    (Driver.Study.Prefetch_study, [ "015.doduc" ]);
    (Driver.Study.Sched_study, [ "codrle4" ]);
  ]

let prepare_for kind bench =
  let opt_config =
    match kind with
    | Driver.Study.Prefetch_study -> Opt.Pipeline.no_unroll
    | _ -> Opt.Pipeline.default
  in
  Driver.Compiler.prepare ~opt_config (Benchmarks.Registry.find bench)

let compile_for kind prepared =
  let machine = Driver.Study.machine_of kind in
  let heuristics =
    Driver.Study.heuristics_with kind (Driver.Study.baseline_genome_of kind)
  in
  (machine, Driver.Compiler.compile ~machine ~heuristics prepared)

(* Fast engine vs reference engine: bit-identical results and event
   effects on every study's machine, both datasets. *)
let test_fast_engine_equivalence () =
  List.iter
    (fun (kind, benches) ->
      List.iter
        (fun bench ->
          let p = prepare_for kind bench in
          let machine, c = compile_for kind p in
          List.iter
            (fun dataset ->
              let overrides =
                Benchmarks.Bench.overrides p.Driver.Compiler.bench dataset
              in
              let run engine =
                Machine.Simulate.run ~engine ~config:machine
                  ~schedule_cycles:c.Driver.Compiler.schedule_cycles ~overrides
                  c.Driver.Compiler.layout
              in
              check_result
                (Printf.sprintf "%s/%s" (Driver.Study.kind_name kind) bench)
                (run `Fast) (run `Reference))
            [ Benchmarks.Bench.Train; Benchmarks.Bench.Novel ])
        benches)
    study_cases

(* Both engines exhaust fuel at the same point. *)
let test_fast_engine_out_of_fuel () =
  let p = prepare_for Driver.Study.Hyperblock_study "codrle4" in
  let _, c = compile_for Driver.Study.Hyperblock_study p in
  let raises f =
    match f () with
    | exception Profile.Interp.Out_of_fuel -> true
    | _ -> false
  in
  Alcotest.(check bool)
    "fast raises" true
    (raises (fun () ->
         Profile.Interp.run ~fuel:1000 c.Driver.Compiler.layout));
  Alcotest.(check bool)
    "reference raises" true
    (raises (fun () ->
         Profile.Interp.run_reference ~fuel:1000 c.Driver.Compiler.layout))

(* Replaying a recorded trace reproduces the simulation bit-for-bit, both
   under the recorded schedule lengths and under perturbed ones (the
   sched-study situation: same events, different timing). *)
let test_replay_equivalence () =
  List.iter
    (fun (kind, benches) ->
      let bench = List.hd benches in
      let p = prepare_for kind bench in
      let machine, c = compile_for kind p in
      let overrides =
        Benchmarks.Bench.overrides p.Driver.Compiler.bench
          Benchmarks.Bench.Train
      in
      let res, tr =
        Machine.Simulate.run_traced ~config:machine
          ~schedule_cycles:c.Driver.Compiler.schedule_cycles ~overrides
          c.Driver.Compiler.layout
      in
      let tr =
        match tr with
        | Some tr -> tr
        | None -> Alcotest.fail "trace did not fit the event budget"
      in
      let name = Driver.Study.kind_name kind in
      check_result (name ^ ": traced = plain")
        (Machine.Simulate.run ~config:machine
           ~schedule_cycles:c.Driver.Compiler.schedule_cycles ~overrides
           c.Driver.Compiler.layout)
        res;
      check_result (name ^ ": replay same lengths")
        (Machine.Simulate.replay ~config:machine
           ~schedule_cycles:c.Driver.Compiler.schedule_cycles tr)
        res;
      let perturbed =
        Array.map (fun l -> l + 1) c.Driver.Compiler.schedule_cycles
      in
      check_result (name ^ ": replay perturbed lengths")
        (Machine.Simulate.replay ~config:machine ~schedule_cycles:perturbed tr)
        (Machine.Simulate.run ~config:machine ~schedule_cycles:perturbed
           ~overrides c.Driver.Compiler.layout))
    study_cases

(* A whole study context with fast paths on vs off: identical fitness for
   baseline and non-trivial candidates.  Off also means no compile-prefix
   snapshot, so the sched study (snapshot through regalloc) and the
   regalloc study (through hyperblock formation) each compare the
   snapshot's suffix compile against the full pipeline. *)
let test_study_fast_vs_slow () =
  let cases =
    [
      ( Driver.Study.Sched_study, "codrle4",
        [ "(sub 0.0 lwd)"; "(add slack latency)"; "(mul critical_path 0.5)" ] );
      ( Driver.Study.Regalloc_study, "huff_enc",
        [ "(sub 0.0 w)"; "(mul degree range_uses)"; "(sub loop_depth uses)" ] );
    ]
  in
  List.iter
    (fun (kind, bench, exprs) ->
      let fs = Driver.Study.feature_set_of kind in
      let genomes =
        Driver.Study.baseline_genome_of kind
        :: List.map (fun s -> Gp.Expr.Real (Gp.Sexp.parse_real fs s)) exprs
      in
      let measure ~fast_sim =
        let ctx = Driver.Study.create ~fast_sim kind [ bench ] in
        List.map
          (fun g ->
            Driver.Study.speedup ctx g ~case:0 ~dataset:Benchmarks.Bench.Train)
          genomes
      in
      let fast = measure ~fast_sim:true and slow = measure ~fast_sim:false in
      List.iteri
        (fun i (f, s) ->
          check_bits
            (Printf.sprintf "%s genome %d" (Driver.Study.kind_name kind) i)
            f s)
        (List.combine fast slow))
    cases

(* The compiled-eval golden path: a study context with Evalc on vs off
   (the [--no-compiled-eval] tree-walker reference) must score every
   candidate bit-identically, across two studies whose decision sites
   route through different Evalc entry points — batch scoring in
   hyperblock formation, per-node priorities in scheduling. *)
let test_study_compiled_vs_walk () =
  let cases =
    [
      ( Driver.Study.Sched_study, "codrle4",
        [ "(sub 0.0 lwd)"; "(add slack latency)"; "(mul critical_path 0.5)" ] );
      ( Driver.Study.Hyperblock_study, "codrle4",
        [ "(mul exec_ratio 2.0)"; "(sub num_ops dep_height)" ] );
    ]
  in
  List.iter
    (fun (kind, bench, exprs) ->
      let fs = Driver.Study.feature_set_of kind in
      let genomes =
        Driver.Study.baseline_genome_of kind
        :: List.map (fun s -> Gp.Expr.Real (Gp.Sexp.parse_real fs s)) exprs
      in
      let measure ~compiled_eval =
        let cfg = { Driver.Study.default_config with compiled_eval } in
        let ctx = Driver.Study.create_with cfg kind [ bench ] in
        List.map
          (fun g ->
            Driver.Study.speedup ctx g ~case:0 ~dataset:Benchmarks.Bench.Train)
          genomes
      in
      let compiled = measure ~compiled_eval:true
      and walked = measure ~compiled_eval:false in
      List.iteri
        (fun i (c, w) ->
          check_bits
            (Printf.sprintf "%s genome %d" (Driver.Study.kind_name kind) i)
            c w)
        (List.combine compiled walked))
    cases

(* Two different genomes that induce the same compilation decisions must
   share one simulation (the artifact hit), and a genome whose decisions
   equal the baseline's scores speedup exactly 1.0 off the baseline's
   artifact without simulating. *)
let test_artifact_collision () =
  let ctx =
    Driver.Study.create Driver.Study.Hyperblock_study [ "codrle4" ]
  in
  let parse s =
    Gp.Expr.Real (Gp.Sexp.parse_real Hyperblock.Features.feature_set s)
  in
  let sims_before =
    (Driver.Simcache.stats ctx.Driver.Study.sim).Driver.Simcache.simulations
  in
  (* Positive scaling preserves the priority order, hence the decisions,
     hence the artifact. *)
  let s1 =
    Driver.Study.speedup ctx (parse "(mul exec_ratio 2.0)") ~case:0
      ~dataset:Benchmarks.Bench.Train
  in
  let s2 =
    Driver.Study.speedup ctx (parse "(mul exec_ratio 4.0)") ~case:0
      ~dataset:Benchmarks.Bench.Train
  in
  let st = Driver.Simcache.stats ctx.Driver.Study.sim in
  check_bits "same decisions, same fitness" s1 s2;
  Alcotest.(check bool)
    "one evaluation counted" true
    (st.Driver.Simcache.simulations - sims_before <= 1);
  Alcotest.(check bool)
    "artifact hits > 0" true
    (st.Driver.Simcache.artifact_hits > 0);
  (* Scaling the baseline ranking reproduces the baseline artifact. *)
  let ctx_sched =
    Driver.Study.create Driver.Study.Sched_study [ "codrle4" ]
  in
  let s_lwd =
    Driver.Study.speedup ctx_sched
      (Gp.Expr.Real (Gp.Sexp.parse_real Sched.Priority.feature_set "(mul lwd 2.0)"))
      ~case:0 ~dataset:Benchmarks.Bench.Train
  in
  check_bits "baseline-equal artifact scores exactly 1.0" 1.0 s_lwd

(* The uid-indexed scheduler output equals the (fname, label) hashtable
   lookup per block. *)
let test_uid_schedule_lengths () =
  let p = prepare_for Driver.Study.Hyperblock_study "codrle4" in
  let config = Machine.Config.table3 in
  let p1 = Ir.Func.copy_program p.Driver.Compiler.optimized in
  let p2 = Ir.Func.copy_program p.Driver.Compiler.optimized in
  let tbl = Sched.List_sched.schedule_program ~config p1 in
  let arr = Sched.List_sched.schedule_program_cycles ~config p2 in
  let layout = Profile.Layout.prepare p2 in
  Alcotest.(check int)
    "length = n_blocks"
    layout.Profile.Layout.n_blocks (Array.length arr);
  Array.iteri
    (fun uid (fname, label) ->
      Alcotest.(check int)
        (Printf.sprintf "uid %d (%s.%s)" uid fname label)
        (Option.value ~default:1 (Hashtbl.find_opt tbl (fname, label)))
        arr.(uid))
    layout.Profile.Layout.block_name

(* call_overhead_cycles charges exactly once per dynamic call, in both
   live simulation and replay. *)
let test_call_overhead () =
  let p = prepare_for Driver.Study.Hyperblock_study "072.sc" in
  let machine, c = compile_for Driver.Study.Hyperblock_study p in
  let overrides =
    Benchmarks.Bench.overrides p.Driver.Compiler.bench Benchmarks.Bench.Train
  in
  let res, tr =
    Machine.Simulate.run_traced ~config:machine
      ~schedule_cycles:c.Driver.Compiler.schedule_cycles ~overrides
      c.Driver.Compiler.layout
  in
  let tr = Option.get tr in
  let calls = Machine.Trace.calls tr in
  Alcotest.(check bool) "benchmark performs calls" true (calls > 0);
  let costly =
    { machine with Machine.Config.call_overhead_cycles = 5.0 }
  in
  (* Integer-valued cycle arithmetic stays exact, so the overhead adds up
     to precisely 5 * calls no matter where it lands in the sum. *)
  let live =
    Machine.Simulate.run ~config:costly
      ~schedule_cycles:c.Driver.Compiler.schedule_cycles ~overrides
      c.Driver.Compiler.layout
  in
  check_bits "live overhead = base + 5*calls"
    (res.Machine.Simulate.cycles +. (5.0 *. float_of_int calls))
    live.Machine.Simulate.cycles;
  let replayed =
    Machine.Simulate.replay ~config:costly
      ~schedule_cycles:c.Driver.Compiler.schedule_cycles tr
  in
  check_result "replay matches live under overhead" live replayed

let suite =
  [
    Alcotest.test_case "fast engine bit-identical across studies" `Slow
      test_fast_engine_equivalence;
    Alcotest.test_case "fast engine fuel accounting" `Quick
      test_fast_engine_out_of_fuel;
    Alcotest.test_case "trace replay bit-identical" `Slow
      test_replay_equivalence;
    Alcotest.test_case "study results identical fast vs slow" `Slow
      test_study_fast_vs_slow;
    Alcotest.test_case "study results identical compiled vs walk" `Slow
      test_study_compiled_vs_walk;
    Alcotest.test_case "artifact collision shares one simulation" `Slow
      test_artifact_collision;
    Alcotest.test_case "uid-indexed schedule lengths" `Quick
      test_uid_schedule_lengths;
    Alcotest.test_case "call overhead charged per dynamic call" `Slow
      test_call_overhead;
  ]
