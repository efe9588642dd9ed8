(* Reference interpreter for the predicated IR.

   Registers and memory cells hold floats; integer values are stored as
   exact floats (benchmark integers stay far below 2^53).  Integer
   division and remainder by zero yield zero, so every well-formed program
   is total — candidate compilations may only differ from the baseline in
   speed, never in definedness.

   An [observer] receives the dynamic events the profiler and the machine
   simulator need: block entries, branch outcomes at static branch sites,
   and memory accesses with resolved word addresses. *)

type mem_kind = Mload | Mstore | Mprefetch

type observer = {
  block_enter : int -> unit;             (* global block uid *)
  branch : int -> bool -> unit;          (* branch site uid, taken *)
  mem : mem_kind -> int -> unit;         (* resolved word address *)
  call : int -> unit;                    (* callee function index *)
}

let null_observer =
  {
    block_enter = ignore;
    branch = (fun _ _ -> ());
    mem = (fun _ _ -> ());
    call = ignore;
  }

type result = {
  output : float list;                   (* emitted values, in order *)
  return_value : float;
  steps : int;
      (* dynamic instruction slots issued: every entered block charges its
         full instruction count, whether or not a taken side exit cuts the
         visit short.  Block composition is schedule-invariant (the
         scheduler only permutes within blocks), so this count is
         identical across schedules of the same program — which is what
         lets a recorded trace report it during cross-schedule replay. *)
}

exception Out_of_fuel
exception Trap of string

let checksum output =
  (* An order-sensitive checksum of the emitted values, for comparing
     baseline and transformed compilations. *)
  List.fold_left
    (fun acc v ->
      let bits = Int64.to_int (Int64.of_float (v *. 65536.0)) in
      (acc * 31) + bits land 0x3FFFFFFFFFFFFF)
    17 output

type state = {
  layout : Layout.t;
  memory : float array;
  obs : observer;
  mutable fuel : int;
  mutable out_rev : float list;
  mutable steps : int;
  tok : Gp.Cancel.token;  (* the supervising pool's cancellation token *)
  mutable poll : int;  (* block entries until the next token check *)
}

let[@inline] ( .%() ) (m : float array) a =
  if a < 0 || a >= Array.length m then
    raise (Trap (Printf.sprintf "memory access out of bounds: %d" a))
  else m.(a)

let[@inline] ( .%()<- ) (m : float array) a v =
  if a < 0 || a >= Array.length m then
    raise (Trap (Printf.sprintf "memory store out of bounds: %d" a))
  else m.(a) <- v

let[@inline] eval_ibin op a b =
  match op with
  | Ir.Types.Add -> a + b
  | Ir.Types.Sub -> a - b
  | Ir.Types.Mul -> a * b
  | Ir.Types.Div -> if b = 0 then 0 else a / b
  | Ir.Types.Rem -> if b = 0 then 0 else a mod b
  | Ir.Types.Band -> a land b
  | Ir.Types.Bor -> a lor b
  | Ir.Types.Bxor -> a lxor b
  | Ir.Types.Shl -> a lsl (b land 63)
  | Ir.Types.Shr -> a asr (b land 63)

(* Monomorphic on purpose: a polymorphic compare would call into the
   runtime's generic comparison on every integer compare. *)
let[@inline] eval_icmp c (a : int) (b : int) =
  match c with
  | Ir.Types.Ceq -> a = b
  | Ir.Types.Cne -> a <> b
  | Ir.Types.Clt -> a < b
  | Ir.Types.Cle -> a <= b
  | Ir.Types.Cgt -> a > b
  | Ir.Types.Cge -> a >= b

let[@inline] eval_fcmp c (a : float) (b : float) =
  match c with
  | Ir.Types.Ceq -> a = b
  | Ir.Types.Cne -> a <> b
  | Ir.Types.Clt -> a < b
  | Ir.Types.Cle -> a <= b
  | Ir.Types.Cgt -> a > b
  | Ir.Types.Cge -> a >= b

let[@inline] eval_fbin op a b =
  match op with
  | Ir.Types.Fadd -> a +. b
  | Ir.Types.Fsub -> a -. b
  | Ir.Types.Fmul -> a *. b
  | Ir.Types.Fdiv -> if b = 0.0 then 0.0 else a /. b

let eval_intrin i (args : float list) =
  match (i, args) with
  | Ir.Types.Isin, [ x ] -> sin x
  | Ir.Types.Icos, [ x ] -> cos x
  | Ir.Types.Iexp, [ x ] -> exp (Float.min x 700.0)
  | Ir.Types.Ilog, [ x ] -> if x <= 0.0 then 0.0 else log x
  | Ir.Types.Imin, [ a; b ] ->
    float_of_int (min (int_of_float a) (int_of_float b))
  | Ir.Types.Imax, [ a; b ] ->
    float_of_int (max (int_of_float a) (int_of_float b))
  | Ir.Types.Ifmin, [ a; b ] -> Float.min a b
  | Ir.Types.Ifmax, [ a; b ] -> Float.max a b
  | _ -> raise (Trap "intrinsic arity mismatch")

(* Execute one function; returns its return value. *)
let rec exec_func (st : state) (pf : Layout.pfunc) (args : float array) : float
    =
  let regs = Array.make (max 1 pf.Layout.n_regs) 0.0 in
  let preds = Array.make (max 1 pf.Layout.n_preds) false in
  preds.(Ir.Types.p_true) <- true;
  Array.iteri (fun i v -> regs.(i + 1) <- v) args;
  let ev = function
    | Ir.Types.Reg r -> regs.(r)
    | Ir.Types.Imm k -> float_of_int k
    | Ir.Types.Fimm f -> f
  in
  let evi o = int_of_float (ev o) in
  let addr_of (a : Ir.Instr.address) =
    let base =
      match a.Ir.Instr.space with
      | Ir.Instr.Frame fname ->
        (Layout.func st.layout fname).Layout.frame_base + evi a.Ir.Instr.base
      | Ir.Instr.Global _ | Ir.Instr.Unknown -> evi a.Ir.Instr.base
    in
    base + evi a.Ir.Instr.offset
  in
  let return_value = ref 0.0 in
  let rec run_block (bi : int) : unit =
    let b = pf.Layout.blocks.(bi) in
    (* Charge fuel per block entry as well as per instruction, so empty
       infinite loops still run out of fuel. *)
    st.fuel <- st.fuel - 1;
    if st.fuel <= 0 then raise Out_of_fuel;
    (* Cancellation safepoint, identical in both engines (a decrement
       and a compare; the token is really checked every
       [Cancel.poll_interval] block entries). *)
    st.poll <- st.poll - 1;
    if st.poll <= 0 then begin
      st.poll <- Gp.Cancel.poll_interval;
      Gp.Cancel.check st.tok
    end;
    st.obs.block_enter b.Layout.uid;
    let n = Array.length b.Layout.instrs in
    (* Whole-block issue count: schedule-invariant (see [result.steps]),
       unlike counting only the slots visited before a taken exit. *)
    st.steps <- st.steps + n;
    let next = ref `Fallthrough in
    let pc = ref 0 in
    while !next = `Fallthrough && !pc < n do
      let i = b.Layout.instrs.(!pc) in
      st.fuel <- st.fuel - 1;
      if st.fuel <= 0 then raise Out_of_fuel;
      if preds.(i.Ir.Instr.guard) then begin
        (match i.Ir.Instr.kind with
        | Ir.Instr.Ibin (op, d, a, bb) ->
          regs.(d) <- float_of_int (eval_ibin op (evi a) (evi bb))
        | Ir.Instr.Fbin (op, d, a, bb) -> regs.(d) <- eval_fbin op (ev a) (ev bb)
        | Ir.Instr.Funop (op, d, a) ->
          regs.(d) <-
            (match op with
            | Ir.Types.Fneg -> -.ev a
            | Ir.Types.Fabs -> Float.abs (ev a)
            | Ir.Types.Fsqrt -> sqrt (Float.abs (ev a)))
        | Ir.Instr.Icmp (c, d, a, bb) ->
          regs.(d) <- (if eval_icmp c (evi a) (evi bb) then 1.0 else 0.0)
        | Ir.Instr.Fcmp (c, d, a, bb) ->
          regs.(d) <- (if eval_fcmp c (ev a) (ev bb) then 1.0 else 0.0)
        | Ir.Instr.Mov (d, a) -> regs.(d) <- ev a
        | Ir.Instr.Itof (d, a) -> regs.(d) <- ev a
        | Ir.Instr.Ftoi (d, a) -> regs.(d) <- Float.of_int (int_of_float (ev a))
        | Ir.Instr.Intrin (intr, d, args) ->
          regs.(d) <- eval_intrin intr (List.map ev args)
        | Ir.Instr.Gaddr (d, g) ->
          regs.(d) <-
            float_of_int (Hashtbl.find st.layout.Layout.global_base g)
        | Ir.Instr.Load (d, a) ->
          let addr = addr_of a in
          st.obs.mem Mload addr;
          regs.(d) <- st.memory.%(addr)
        | Ir.Instr.Store (a, v) ->
          let addr = addr_of a in
          st.obs.mem Mstore addr;
          st.memory.%(addr) <- ev v
        | Ir.Instr.Prefetch a ->
          (* No architectural effect; the cache model sees the access. *)
          let addr = addr_of a in
          if addr >= 0 && addr < Array.length st.memory then
            st.obs.mem Mprefetch addr
        | Ir.Instr.Call (d, name, args, _) ->
          let argv = Array.of_list (List.map ev args) in
          let callee = Layout.func st.layout name in
          st.obs.call callee.Layout.findex;
          let res = exec_func st callee argv in
          (match d with Some d -> regs.(d) <- res | None -> ())
        | Ir.Instr.Emit v -> st.out_rev <- ev v :: st.out_rev
        | Ir.Instr.Pdef (c, pt, pf_, a, bb) ->
          let v = eval_icmp c (evi a) (evi bb) in
          preds.(pt) <- v;
          preds.(pf_) <- not v
        | Ir.Instr.Pclear p -> preds.(p) <- false
        | Ir.Instr.Pset (c, p, a, bb) ->
          preds.(p) <- eval_icmp c (evi a) (evi bb)
        | Ir.Instr.Por (c, p, a, bb) ->
          if eval_icmp c (evi a) (evi bb) then preds.(p) <- true
        | Ir.Instr.Exit _ -> ());
        (* Taken side exits transfer control. *)
        match i.Ir.Instr.kind with
        | Ir.Instr.Exit _ ->
          let site =
            let rec find k =
              if k >= Array.length b.Layout.exit_targets then -1
              else if fst b.Layout.exit_targets.(k) = !pc then k
              else find (k + 1)
            in
            find 0
          in
          assert (site >= 0);
          st.obs.branch b.Layout.exit_sites.(site) true;
          next := `Goto (snd b.Layout.exit_targets.(site))
        | _ -> incr pc
      end
      else begin
        (* Nullified instruction; unconditional-form compares still clear
           their target, and a predicated-off exit is a not-taken branch
           for the predictor. *)
        (match i.Ir.Instr.kind with
        | Ir.Instr.Pset (_, p, _, _) -> preds.(p) <- false
        | Ir.Instr.Exit _ ->
          let site =
            let rec find k =
              if k >= Array.length b.Layout.exit_targets then -1
              else if fst b.Layout.exit_targets.(k) = !pc then k
              else find (k + 1)
            in
            find 0
          in
          if site >= 0 then st.obs.branch b.Layout.exit_sites.(site) false
        | _ -> ());
        incr pc
      end
    done;
    match !next with
    | `Goto bi' -> run_block bi'
    | `Fallthrough -> (
      match b.Layout.term with
      | Ir.Func.Jmp _ -> run_block (fst b.Layout.term_targets)
      | Ir.Func.Br (c, _, _) ->
        let taken = ev c <> 0.0 in
        st.obs.branch b.Layout.branch_site taken;
        run_block
          (if taken then fst b.Layout.term_targets
           else snd b.Layout.term_targets)
      | Ir.Func.Ret v ->
        return_value := (match v with Some v -> ev v | None -> 0.0))
  in
  run_block 0;
  !return_value

(* Operand reads of the fast engine over [Layout]'s int slots: a
   register, or the complement of an index into the block's constants.
   Inlined, so a read is an array load and its float is never boxed. *)
let[@inline] rd (regs : float array) (consts : float array) o =
  if o >= 0 then regs.(o) else consts.(lnot o)
let[@inline] rdi regs consts o = int_of_float (rd regs consts o)

let[@inline] daddr regs consts (a : Layout.daddr) =
  a.Layout.dframe + rdi regs consts a.Layout.dbase
  + rdi regs consts a.Layout.doffset

(* Fast engine: executes the pre-decoded mirror that [Layout.prepare]
   builds.  Must stay observably bit-identical to [exec_func] above —
   same register/predicate/memory updates, same observer event order,
   same fuel and step accounting, same exceptions at the same points. *)
let rec exec_fast (st : state) (pf : Layout.pfunc) (args : float array) : float
    =
  let regs = Array.make (max 1 pf.Layout.n_regs) 0.0 in
  let preds = Array.make (max 1 pf.Layout.n_preds) false in
  preds.(Ir.Types.p_true) <- true;
  for i = 0 to Array.length args - 1 do
    regs.(i + 1) <- args.(i)
  done;
  let return_value = ref 0.0 in
  let bi = ref 0 in
  let running = ref true in
  while !running do
    let b = pf.Layout.blocks.(!bi) in
    st.fuel <- st.fuel - 1;
    if st.fuel <= 0 then raise Out_of_fuel;
    (* Cancellation safepoint — same cadence and position as the
       tree-walking engine's, so both engines observe a deadline at the
       same block entry. *)
    st.poll <- st.poll - 1;
    if st.poll <= 0 then begin
      st.poll <- Gp.Cancel.poll_interval;
      Gp.Cancel.check st.tok
    end;
    st.obs.block_enter b.Layout.uid;
    let dinstrs = b.Layout.dinstrs and dguards = b.Layout.dguards in
    let consts = b.Layout.dconsts in
    let n = Array.length dinstrs in
    (* Whole-block issue count, matching the tree-walking engine. *)
    st.steps <- st.steps + n;
    let next = ref (-1) in
    let pc = ref 0 in
    while !next < 0 && !pc < n do
      st.fuel <- st.fuel - 1;
      if st.fuel <= 0 then raise Out_of_fuel;
      (if preds.(dguards.(!pc)) then
         match dinstrs.(!pc) with
         | Layout.Dibin (op, d, a, bb) ->
           regs.(d) <-
             float_of_int
               (eval_ibin op (rdi regs consts a) (rdi regs consts bb))
         | Layout.Dfbin (op, d, a, bb) ->
           regs.(d) <- eval_fbin op (rd regs consts a) (rd regs consts bb)
         | Layout.Dfunop (op, d, a) ->
           let x = rd regs consts a in
           regs.(d) <-
             (match op with
             | Ir.Types.Fneg -> -.x
             | Ir.Types.Fabs -> Float.abs x
             | Ir.Types.Fsqrt -> sqrt (Float.abs x))
         | Layout.Dicmp (c, d, a, bb) ->
           regs.(d) <-
             (if eval_icmp c (rdi regs consts a) (rdi regs consts bb) then 1.0
              else 0.0)
         | Layout.Dfcmp (c, d, a, bb) ->
           regs.(d) <-
             (if eval_fcmp c (rd regs consts a) (rd regs consts bb) then 1.0
              else 0.0)
         | Layout.Dmov (d, a) -> regs.(d) <- rd regs consts a
         | Layout.Dftoi (d, a) ->
           regs.(d) <- Float.of_int (rdi regs consts a)
         | Layout.Dintrin1 (intr, d, a) ->
           let x = rd regs consts a in
           regs.(d) <-
             (match intr with
             | Ir.Types.Isin -> sin x
             | Ir.Types.Icos -> cos x
             | Ir.Types.Iexp -> exp (Float.min x 700.0)
             | Ir.Types.Ilog -> if x <= 0.0 then 0.0 else log x
             | _ -> raise (Trap "intrinsic arity mismatch"))
         | Layout.Dintrin2 (intr, d, a, bb) ->
           regs.(d) <-
             (match intr with
             | Ir.Types.Imin ->
               float_of_int
                 (Int.min (rdi regs consts a) (rdi regs consts bb))
             | Ir.Types.Imax ->
               float_of_int
                 (Int.max (rdi regs consts a) (rdi regs consts bb))
             | Ir.Types.Ifmin ->
               Float.min (rd regs consts a) (rd regs consts bb)
             | Ir.Types.Ifmax ->
               Float.max (rd regs consts a) (rd regs consts bb)
             | _ -> raise (Trap "intrinsic arity mismatch"))
         | Layout.Dload (d, a) ->
           let addr = daddr regs consts a in
           st.obs.mem Mload addr;
           regs.(d) <- st.memory.%(addr)
         | Layout.Dstore (a, v) ->
           let addr = daddr regs consts a in
           st.obs.mem Mstore addr;
           st.memory.%(addr) <- rd regs consts v
         | Layout.Dprefetch a ->
           let addr = daddr regs consts a in
           if addr >= 0 && addr < Array.length st.memory then
             st.obs.mem Mprefetch addr
         | Layout.Dcall (d, fi, cargs) ->
           let argv = Array.make (Array.length cargs) 0.0 in
           for k = 0 to Array.length cargs - 1 do
             argv.(k) <- rd regs consts cargs.(k)
           done;
           st.obs.call fi;
           let res = exec_fast st st.layout.Layout.funcs.(fi) argv in
           if d >= 0 then regs.(d) <- res
         | Layout.Demit v -> st.out_rev <- rd regs consts v :: st.out_rev
         | Layout.Dpdef (c, pt, pf_, a, bb) ->
           let v = eval_icmp c (rdi regs consts a) (rdi regs consts bb) in
           preds.(pt) <- v;
           preds.(pf_) <- not v
         | Layout.Dpclear p -> preds.(p) <- false
         | Layout.Dpset (c, p, a, bb) ->
           preds.(p) <- eval_icmp c (rdi regs consts a) (rdi regs consts bb)
         | Layout.Dpor (c, p, a, bb) ->
           if eval_icmp c (rdi regs consts a) (rdi regs consts bb) then
             preds.(p) <- true
         | Layout.Dexit (site, target) ->
           st.obs.branch site true;
           next := target
         | Layout.Draise_notfound -> raise Not_found
         | Layout.Draise_invalid m -> invalid_arg m
         | Layout.Dtrap_arity -> raise (Trap "intrinsic arity mismatch")
       else
         match dinstrs.(!pc) with
         | Layout.Dpset (_, p, _, _) -> preds.(p) <- false
         | Layout.Dexit (site, _) -> st.obs.branch site false
         | _ -> ());
      if !next < 0 then incr pc
    done;
    if !next >= 0 then bi := !next
    else
      match b.Layout.term with
      | Ir.Func.Jmp _ -> bi := fst b.Layout.term_targets
      | Ir.Func.Br _ ->
        let taken = rd regs consts b.Layout.dterm <> 0.0 in
        st.obs.branch b.Layout.branch_site taken;
        bi :=
          (if taken then fst b.Layout.term_targets
           else snd b.Layout.term_targets)
      | Ir.Func.Ret _ ->
        return_value := rd regs consts b.Layout.dterm;
        running := false
  done;
  !return_value

(* Run a program.  [overrides] replaces the initial contents of named
   globals (benchmark datasets).  [fuel] bounds dynamic instructions. *)
let run_with exec ?(observer = null_observer) ?(fuel = 30_000_000)
    ?(overrides : (string * float array) list = []) (layout : Layout.t) :
    result =
  let memory = Array.make (max 1 layout.Layout.memory_words) 0.0 in
  List.iter
    (fun (g : Ir.Func.global) ->
      let base = Hashtbl.find layout.Layout.global_base g.gname in
      Array.iteri (fun i v -> memory.(base + i) <- v) g.ginit)
    layout.Layout.prog.Ir.Func.globals;
  List.iter
    (fun (name, data) ->
      match Hashtbl.find_opt layout.Layout.global_base name with
      | None -> invalid_arg ("Interp.run: override of unknown global " ^ name)
      | Some base ->
        let g = Ir.Func.find_global layout.Layout.prog name in
        if Array.length data > g.Ir.Func.gsize then
          invalid_arg ("Interp.run: override too large for " ^ name);
        Array.iteri (fun i v -> memory.(base + i) <- v) data)
    overrides;
  let st =
    {
      layout;
      memory;
      obs = observer;
      fuel;
      out_rev = [];
      steps = 0;
      tok = Gp.Cancel.current ();
      poll = Gp.Cancel.poll_interval;
    }
  in
  let main = Layout.func layout layout.Layout.prog.Ir.Func.main in
  let ret = exec st main [||] in
  { output = List.rev st.out_rev; return_value = ret; steps = st.steps }

let run ?observer ?fuel ?overrides layout =
  run_with exec_fast ?observer ?fuel ?overrides layout

let run_reference ?observer ?fuel ?overrides layout =
  run_with exec_func ?observer ?fuel ?overrides layout
