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

(* Only the scheduling study records event traces: in every other study
   the evolved pass rewrites the program, which is part of the trace key,
   so a recorded trace is never replayed.  The hyperblock and prefetch
   studies therefore record nothing and still score every candidate
   exactly as the golden slow path does; the sched study records and
   replays. *)
let test_recording_rule () =
  let genomes kind exprs =
    let fs = Driver.Study.feature_set_of kind in
    Driver.Study.baseline_genome_of kind
    :: List.map
         (fun s ->
           match Driver.Study.sort_of kind with
           | `Real -> Gp.Expr.Real (Gp.Sexp.parse_real fs s)
           | `Bool -> Gp.Expr.Bool (Gp.Sexp.parse_bool fs s))
         exprs
  in
  let scores ctx gs =
    List.map
      (fun g ->
        Driver.Study.speedup ctx g ~case:0 ~dataset:Benchmarks.Bench.Train)
      gs
  in
  List.iter
    (fun (kind, bench, exprs) ->
      let name = Driver.Study.kind_name kind in
      let gs = genomes kind exprs in
      let fast = Driver.Study.create kind [ bench ] in
      let slow = Driver.Study.create ~fast_sim:false kind [ bench ] in
      List.iteri
        (fun i (f, s) -> check_bits (Printf.sprintf "%s genome %d" name i) f s)
        (List.combine (scores fast gs) (scores slow gs));
      let st = Driver.Simcache.stats fast.Driver.Study.sim in
      Alcotest.(check bool) (name ^ ": simulated") true
        (st.Driver.Simcache.simulations > 0);
      Alcotest.(check int) (name ^ ": recorded no trace") 0
        st.Driver.Simcache.traced;
      Alcotest.(check int) (name ^ ": replayed nothing") 0
        st.Driver.Simcache.replays)
    [
      ( Driver.Study.Hyperblock_study, "codrle4",
        [ "(mul exec_ratio 2.0)"; "(sub num_ops dep_height)"; "(sub 0.0 1.0)" ]
      );
      ( Driver.Study.Prefetch_study, "015.doduc",
        [ "true"; "false"; "(gt abs_stride 4.0)" ] );
    ];
  let sched = Driver.Study.create Driver.Study.Sched_study [ "codrle4" ] in
  ignore
    (scores sched
       (genomes Driver.Study.Sched_study
          [ "(sub 0.0 lwd)"; "(add slack latency)"; "(mul critical_path 0.5)" ]));
  let st = Driver.Simcache.stats sched.Driver.Study.sim in
  Alcotest.(check bool) "sched: records traces" true
    (st.Driver.Simcache.traced > 0);
  Alcotest.(check bool) "sched: replays" true (st.Driver.Simcache.replays > 0)

(* The trace table never holds more than [max_traces]: none at 0, so
   nothing stored is ever replayed, and one at 1, where storing a second
   key evicts the first and re-storing the held key evicts nothing.
   Retimed copies of one artifact share its trace key, so whether a
   simulation of one is a replay shows what the table holds. *)
let test_trace_cap_exact () =
  let kind = Driver.Study.Sched_study in
  let p = prepare_for kind "codrle4" in
  let machine, c = compile_for kind p in
  let dataset = Benchmarks.Bench.Train in
  let overrides =
    Benchmarks.Bench.overrides p.Driver.Compiler.bench dataset
  in
  let tr =
    match
      snd
        (Machine.Simulate.run_traced ~config:machine
           ~schedule_cycles:c.Driver.Compiler.schedule_cycles ~overrides
           c.Driver.Compiler.layout)
    with
    | Some tr -> tr
    | None -> Alcotest.fail "trace did not fit the event budget"
  in
  let tk = Driver.Simcache.trace_key ~dataset p c in
  let retimed k =
    {
      c with
      Driver.Compiler.schedule_cycles =
        Array.map (fun l -> l + k) c.Driver.Compiler.schedule_cycles;
    }
  in
  let probe name sim k ~replayed =
    let st = Driver.Simcache.stats sim in
    let before = st.Driver.Simcache.replays in
    let c' = retimed k in
    check_result name
      (Machine.Simulate.run ~config:machine
         ~schedule_cycles:c'.Driver.Compiler.schedule_cycles ~overrides
         c'.Driver.Compiler.layout)
      (Driver.Simcache.simulate sim ~machine ~dataset p c');
    Alcotest.(check bool) (name ^ ": replayed") replayed
      (st.Driver.Simcache.replays > before)
  in
  let none = Driver.Simcache.create ~max_traces:0 () in
  Driver.Simcache.store_trace none tk tr;
  probe "cap 0, after a store" none 1 ~replayed:false;
  probe "cap 0, after a miss" none 2 ~replayed:false;
  Alcotest.(check int) "cap 0: nothing recorded" 0
    (Driver.Simcache.stats none).Driver.Simcache.traced;
  let one = Driver.Simcache.create ~max_traces:1 () in
  Driver.Simcache.store_trace one tk tr;
  Driver.Simcache.store_trace one "another key" tr;
  probe "cap 1, key evicted" one 1 ~replayed:false;
  probe "cap 1, key recorded again" one 2 ~replayed:true;
  Driver.Simcache.store_trace one tk tr;
  probe "cap 1, key re-stored" one 3 ~replayed:true;
  Alcotest.(check int) "cap 1: one recording" 1
    (Driver.Simcache.stats one).Driver.Simcache.traced

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

(* Every operand slot the decoder rewrites holds an immediate here —
   arithmetic, compare and predicate-define operands, address base and
   offset (global and frame space), store value, call arguments, emit, the
   [Br] condition and the [Ret] value — including an integer above 2^53,
   which [float_of_int] rounds.  The fast engine reads each from its
   block's constant pool and must reproduce the reference bit for bit. *)
let test_decoded_immediates () =
  let mk ?(guard = Ir.Types.p_true) id kind = Ir.Instr.make ~id ~guard kind in
  let big = (1 lsl 60) + 1 in
  let open Ir.Types in
  let addr ?(space = Ir.Instr.Global "g") base offset =
    { Ir.Instr.base; offset; space; hazard = false }
  in
  let helper =
    {
      Ir.Func.fname = "helper";
      params = [ 1; 2; 3 ];
      blocks =
        [
          {
            Ir.Func.blabel = "h";
            instrs =
              [
                mk 0 (Ir.Instr.Fbin (Fadd, 4, Reg 1, Reg 2));
                mk 1 (Ir.Instr.Fbin (Fmul, 4, Reg 4, Reg 3));
              ];
            term = Ir.Func.Ret (Some (Reg 4));
          };
        ];
      next_reg = 5;
      next_pred = 1;
      next_instr = 2;
      frame_size = 0;
    }
  in
  let entry =
    [
      Ir.Instr.Ibin (Add, 1, Imm 7, Imm 5);
      Ir.Instr.Ibin (Sub, 2, Imm big, Imm (1 lsl 60));
      Ir.Instr.Ibin (Shr, 3, Imm big, Imm 7);
      Ir.Instr.Fbin (Fmul, 4, Fimm 1.5, Imm 4);
      Ir.Instr.Fbin (Fdiv, 5, Imm big, Fimm 0.375);
      Ir.Instr.Funop (Fsqrt, 6, Fimm (-16.0));
      Ir.Instr.Funop (Fneg, 7, Imm big);
      Ir.Instr.Icmp (Clt, 8, Imm 3, Imm big);
      Ir.Instr.Fcmp (Cge, 9, Fimm 2.5, Imm 2);
      Ir.Instr.Mov (10, Fimm 0.1);
      Ir.Instr.Itof (11, Imm big);
      Ir.Instr.Ftoi (12, Fimm (-3.75));
      Ir.Instr.Intrin (Imax, 13, [ Imm big; Imm 5 ]);
      Ir.Instr.Intrin (Isin, 14, [ Fimm 0.5 ]);
      Ir.Instr.Intrin (Ifmin, 15, [ Imm 9; Fimm 8.5 ]);
      Ir.Instr.Gaddr (16, "g");
      Ir.Instr.Store (addr (Imm 3) (Imm 2), Fimm 4.25);
      Ir.Instr.Store (addr (Reg 16) (Fimm 1.9), Imm big);
      Ir.Instr.Store (addr ~space:(Ir.Instr.Frame "main") (Imm 0) (Imm 1),
                      Fimm 7.5);
      Ir.Instr.Load (17, addr (Imm 2) (Fimm 3.0));
      Ir.Instr.Load
        (18, addr ~space:(Ir.Instr.Frame "main") (Fimm 1.0) (Imm 0));
      Ir.Instr.Load (19, addr (Imm 0) (Imm 1));
      Ir.Instr.Prefetch (addr (Imm 0) (Imm 8));
      Ir.Instr.Call (Some 20, "helper", [ Imm 4; Fimm 0.25; Imm big ],
                     Ir.Instr.Impure);
      Ir.Instr.Pdef (Ceq, 1, 2, Imm big, Fimm (float_of_int big));
      Ir.Instr.Pset (Cne, 3, Imm 2, Fimm 1.75);
      Ir.Instr.Por (Cgt, 4, Imm big, Imm 2);
      Ir.Instr.Emit (Imm big);
      Ir.Instr.Emit (Fimm 1e-3);
    ]
  in
  let guarded =
    [ (1, 111); (2, 222); (3, 333); (4, 444) ]
    |> List.map (fun (g, v) -> (g, Ir.Instr.Emit (Imm v)))
  in
  let emits = List.init 20 (fun r -> Ir.Instr.Emit (Reg (r + 1))) in
  let instrs =
    List.mapi
      (fun id (guard, kind) -> mk ~guard id kind)
      (List.map (fun k -> (p_true, k)) entry
      @ guarded
      @ List.map (fun k -> (p_true, k)) emits)
  in
  let block blabel instrs term = { Ir.Func.blabel; instrs; term } in
  let main =
    {
      Ir.Func.fname = "main";
      params = [];
      blocks =
        [
          block "entry" instrs (Ir.Func.Br (Imm big, "t", "f"));
          block "t" [] (Ir.Func.Br (Fimm 0.0, "f", "u"));
          block "u" [] (Ir.Func.Ret (Some (Imm big)));
          block "f" [] (Ir.Func.Ret (Some (Fimm 2.5)));
        ];
      next_reg = 21;
      next_pred = 5;
      next_instr = List.length instrs;
      frame_size = 2;
    }
  in
  let prog =
    {
      Ir.Func.funcs = [ main; helper ];
      globals = [ { Ir.Func.gname = "g"; gsize = 16; ginit = [||] } ];
      main = "main";
    }
  in
  Ir.Validate.check_exn prog;
  let layout = Profile.Layout.prepare prog in
  let fast = Profile.Interp.run layout in
  let reference = Profile.Interp.run_reference layout in
  Alcotest.(check (list int64))
    "output bits"
    (List.map Int64.bits_of_float reference.Profile.Interp.output)
    (List.map Int64.bits_of_float fast.Profile.Interp.output);
  Alcotest.(check int)
    "guards 1, 3 and 4 hold" (2 + 3 + 20)
    (List.length fast.Profile.Interp.output);
  check_bits "return value" reference.Profile.Interp.return_value
    fast.Profile.Interp.return_value;
  check_bits "returned the Imm above 2^53" (float_of_int big)
    fast.Profile.Interp.return_value;
  let schedule_cycles =
    Array.init layout.Profile.Layout.n_blocks (fun uid -> uid + 2)
  in
  let sim engine =
    Machine.Simulate.run ~engine ~config:Machine.Config.itanium1
      ~schedule_cycles layout
  in
  check_result "decoded immediates" (sim `Fast) (sim `Reference)

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
    Alcotest.test_case "only the sched study records traces" `Slow
      test_recording_rule;
    Alcotest.test_case "trace table cap is exact" `Quick test_trace_cap_exact;
    Alcotest.test_case "study results identical compiled vs walk" `Slow
      test_study_compiled_vs_walk;
    Alcotest.test_case "artifact collision shares one simulation" `Slow
      test_artifact_collision;
    Alcotest.test_case "uid-indexed schedule lengths" `Quick
      test_uid_schedule_lengths;
    Alcotest.test_case "call overhead charged per dynamic call" `Slow
      test_call_overhead;
    Alcotest.test_case "decoded immediates bit-identical" `Quick
      test_decoded_immediates;
  ]
