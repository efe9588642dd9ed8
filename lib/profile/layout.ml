(* Memory layout and pre-resolution of an IR program for execution.

   The interpreter and the trace-driven simulator both execute prepared
   programs: labels resolved to block indices, blocks to arrays, globals
   and per-function spill frames assigned disjoint word addresses.  Every
   block and every static branch site gets a dense global id so observers
   can use plain arrays. *)

(* Pre-decoded instruction forms: everything the interpreter would
   otherwise look up per dynamic execution — the [Gaddr] hashtable probe,
   [Frame] base resolution through [func], callee resolution, the
   allocating variable-arity intrinsic dispatch, and the linear
   exit-site scan — is resolved once at prepare time.  Name-resolution
   failures decode to [Draise_*]/[Dtrap_arity] markers that raise the
   exact exception the reference interpreter would raise, and only when
   the instruction actually executes under a true guard.

   Every operand is an int slot: [r >= 0] reads register [r], and a
   negative slot [s] reads [dconsts.(lnot s)] of its block, where the
   decoder stored [Imm k] as [float_of_int k] and [Fimm f] as [f] — the
   exact values the reference interpreter computes per read.  A read is
   then an array load with no variant match and no boxed float.  A
   (malformed) negative register decodes to [max_int], so its read fails
   the bounds check just as the reference engine's [regs.(r)] does. *)

type daddr = {
  dframe : int;   (* pre-resolved frame base; 0 for global/unknown space *)
  dbase : int;    (* operand slot *)
  doffset : int;  (* operand slot *)
}

type dinstr =
  | Dibin of Ir.Types.ibinop * int * int * int
  | Dfbin of Ir.Types.fbinop * int * int * int
  | Dfunop of Ir.Types.funop * int * int
  | Dicmp of Ir.Types.icmp * int * int * int
  | Dfcmp of Ir.Types.icmp * int * int * int
  | Dmov of int * int                  (* also Itof and a resolved Gaddr *)
  | Dftoi of int * int
  | Dintrin1 of Ir.Types.intrinsic * int * int
  | Dintrin2 of Ir.Types.intrinsic * int * int * int
  | Dload of int * daddr
  | Dstore of daddr * int
  | Dprefetch of daddr
  | Dcall of int * int * int array     (* dest (-1: none), findex, args *)
  | Demit of int
  | Dpdef of Ir.Types.icmp * int * int * int * int
  | Dpclear of int
  | Dpset of Ir.Types.icmp * int * int * int
  | Dpor of Ir.Types.icmp * int * int * int
  | Dexit of int * int                 (* branch site uid, target index *)
  | Draise_notfound                    (* unknown global *)
  | Draise_invalid of string           (* unknown function/frame *)
  | Dtrap_arity                        (* intrinsic arity mismatch *)

type pblock = {
  uid : int;                         (* global block id *)
  label : Ir.Types.label;
  instrs : Ir.Instr.t array;
  term : Ir.Func.terminator;
  (* Resolved targets: index within the owning function's blocks. *)
  mutable term_targets : int * int;  (* (then/jmp, else); -1 when unused *)
  (* Exit instruction position -> target block index *)
  exit_targets : (int * int) array;
  (* Branch site id of the terminator, -1 if the terminator is not a
     conditional branch.  Exit instructions have their own site ids,
     aligned with [exit_targets]. *)
  branch_site : int;
  exit_sites : int array;
  (* Pre-decoded mirror of [instrs]; filled by a second pass of
     [prepare] once all frame bases, global bases and function indices
     are known. *)
  mutable dinstrs : dinstr array;
  mutable dguards : int array;
  mutable dconsts : float array;  (* constants of the block's slots *)
  (* Operand slot of the terminator: the [Br] condition or the [Ret]
     value (a 0.0 constant for a bare [Ret]); unused for [Jmp]. *)
  mutable dterm : int;
}

type pfunc = {
  f : Ir.Func.t;
  findex : int;
  blocks : pblock array;
  block_index : (Ir.Types.label, int) Hashtbl.t;
  n_regs : int;
  n_preds : int;
  frame_base : int;
}

type t = {
  prog : Ir.Func.program;
  funcs : pfunc array;
  func_index : (string, int) Hashtbl.t;
  global_base : (string, int) Hashtbl.t;
  memory_words : int;
  n_blocks : int;                    (* total across functions *)
  n_branch_sites : int;
  (* Reverse maps for reporting *)
  block_name : (string * Ir.Types.label) array;
  branch_name : (string * Ir.Types.label * int) array;
    (* (func, block, -1 for terminator | instr id for exits) *)
}

(* Second prepare pass: pre-decode a block's instructions and
   terminator.  Needs the completed [t] because frame bases, global bases
   and function indices span the whole program. *)
let decode_block (t : t) (b : pblock) =
  let n = Array.length b.instrs in
  let consts = ref [] and n_consts = ref 0 in
  let const v =
    consts := v :: !consts;
    incr n_consts;
    lnot (!n_consts - 1)
  in
  let slot = function
    | Ir.Types.Reg r -> if r >= 0 then r else max_int
    | Ir.Types.Imm k -> const (float_of_int k)
    | Ir.Types.Fimm f -> const f
  in
  let daddr (a : Ir.Instr.address) =
    let frame =
      match a.Ir.Instr.space with
      | Ir.Instr.Frame fname -> (
        match Hashtbl.find_opt t.func_index fname with
        | Some i -> Ok t.funcs.(i).frame_base
        | None -> Error ("Layout.func: unknown function " ^ fname))
      | Ir.Instr.Global _ | Ir.Instr.Unknown -> Ok 0
    in
    Result.map
      (fun dframe ->
        {
          dframe;
          dbase = slot a.Ir.Instr.base;
          doffset = slot a.Ir.Instr.offset;
        })
      frame
  in
  let exit_of pos =
    let rec find k =
      if k >= Array.length b.exit_targets then
        invalid_arg "Layout.decode_block: exit without a recorded target"
      else if fst b.exit_targets.(k) = pos then
        (b.exit_sites.(k), snd b.exit_targets.(k))
      else find (k + 1)
    in
    find 0
  in
  let dinstrs = Array.make n Draise_notfound in
  let dguards = Array.make n 0 in
  Array.iteri
    (fun pos (i : Ir.Instr.t) ->
      dguards.(pos) <- i.Ir.Instr.guard;
      dinstrs.(pos) <-
        (match i.Ir.Instr.kind with
        | Ir.Instr.Ibin (op, d, a, bb) -> Dibin (op, d, slot a, slot bb)
        | Ir.Instr.Fbin (op, d, a, bb) -> Dfbin (op, d, slot a, slot bb)
        | Ir.Instr.Funop (op, d, a) -> Dfunop (op, d, slot a)
        | Ir.Instr.Icmp (c, d, a, bb) -> Dicmp (c, d, slot a, slot bb)
        | Ir.Instr.Fcmp (c, d, a, bb) -> Dfcmp (c, d, slot a, slot bb)
        | Ir.Instr.Mov (d, a) | Ir.Instr.Itof (d, a) -> Dmov (d, slot a)
        | Ir.Instr.Ftoi (d, a) -> Dftoi (d, slot a)
        | Ir.Instr.Intrin (intr, d, args) -> (
          match (intr, args) with
          | (Ir.Types.Isin | Icos | Iexp | Ilog), [ a ] ->
            Dintrin1 (intr, d, slot a)
          | (Ir.Types.Imin | Imax | Ifmin | Ifmax), [ a; bb ] ->
            Dintrin2 (intr, d, slot a, slot bb)
          | _ -> Dtrap_arity)
        | Ir.Instr.Gaddr (d, g) -> (
          match Hashtbl.find_opt t.global_base g with
          | Some base -> Dmov (d, const (float_of_int base))
          | None -> Draise_notfound)
        | Ir.Instr.Load (d, a) -> (
          match daddr a with Ok da -> Dload (d, da) | Error m -> Draise_invalid m)
        | Ir.Instr.Store (a, v) -> (
          match daddr a with
          | Ok da -> Dstore (da, slot v)
          | Error m -> Draise_invalid m)
        | Ir.Instr.Prefetch a -> (
          match daddr a with Ok da -> Dprefetch da | Error m -> Draise_invalid m)
        | Ir.Instr.Call (d, name, args, _) -> (
          match Hashtbl.find_opt t.func_index name with
          | Some fi ->
            Dcall
              ( (match d with Some d -> d | None -> -1),
                fi,
                Array.of_list (List.map slot args) )
          | None -> Draise_invalid ("Layout.func: unknown function " ^ name))
        | Ir.Instr.Emit v -> Demit (slot v)
        | Ir.Instr.Pdef (c, pt, pf, a, bb) -> Dpdef (c, pt, pf, slot a, slot bb)
        | Ir.Instr.Pclear p -> Dpclear p
        | Ir.Instr.Pset (c, p, a, bb) -> Dpset (c, p, slot a, slot bb)
        | Ir.Instr.Por (c, p, a, bb) -> Dpor (c, p, slot a, slot bb)
        | Ir.Instr.Exit _ ->
          let site, target = exit_of pos in
          Dexit (site, target)))
    b.instrs;
  b.dterm <-
    (match b.term with
    | Ir.Func.Br (c, _, _) -> slot c
    | Ir.Func.Ret (Some v) -> slot v
    | Ir.Func.Ret None -> const 0.0
    | Ir.Func.Jmp _ -> 0);
  b.dinstrs <- dinstrs;
  b.dguards <- dguards;
  b.dconsts <- Array.of_list (List.rev !consts)

let prepare (prog : Ir.Func.program) : t =
  let global_base = Hashtbl.create 16 in
  let next_addr = ref 0 in
  List.iter
    (fun (g : Ir.Func.global) ->
      Hashtbl.replace global_base g.gname !next_addr;
      next_addr := !next_addr + g.gsize)
    prog.globals;
  let block_uid = ref 0 in
  let branch_uid = ref 0 in
  let block_names = ref [] and branch_names = ref [] in
  let func_index = Hashtbl.create 16 in
  let funcs =
    Array.of_list
      (List.mapi
         (fun findex (f : Ir.Func.t) ->
           Hashtbl.replace func_index f.fname findex;
           let block_index = Hashtbl.create 16 in
           List.iteri
             (fun i (b : Ir.Func.block) ->
               Hashtbl.replace block_index b.blabel i)
             f.blocks;
           let frame_base = !next_addr in
           next_addr := !next_addr + max 0 f.frame_size;
           let blocks =
             Array.of_list
               (List.map
                  (fun (b : Ir.Func.block) ->
                    let uid = !block_uid in
                    incr block_uid;
                    block_names := (f.fname, b.blabel) :: !block_names;
                    let instrs = Array.of_list b.instrs in
                    let resolve l =
                      match Hashtbl.find_opt block_index l with
                      | Some i -> i
                      | None ->
                        invalid_arg
                          (Printf.sprintf "Layout.prepare: %s: unknown label %s"
                             f.fname l)
                    in
                    let term_targets =
                      match b.term with
                      | Ir.Func.Jmp l -> (resolve l, -1)
                      | Ir.Func.Br (_, l1, l2) -> (resolve l1, resolve l2)
                      | Ir.Func.Ret _ -> (-1, -1)
                    in
                    let branch_site =
                      match b.term with
                      | Ir.Func.Br _ ->
                        let s = !branch_uid in
                        incr branch_uid;
                        branch_names := (f.fname, b.blabel, -1) :: !branch_names;
                        s
                      | _ -> -1
                    in
                    let exits = ref [] in
                    Array.iteri
                      (fun pos (i : Ir.Instr.t) ->
                        match i.Ir.Instr.kind with
                        | Ir.Instr.Exit l ->
                          let s = !branch_uid in
                          incr branch_uid;
                          branch_names :=
                            (f.fname, b.blabel, i.Ir.Instr.id) :: !branch_names;
                          exits := (pos, resolve l, s) :: !exits
                        | _ -> ())
                      instrs;
                    let exits = List.rev !exits in
                    {
                      uid;
                      label = b.blabel;
                      instrs;
                      term = b.term;
                      term_targets;
                      exit_targets =
                        Array.of_list (List.map (fun (p, t, _) -> (p, t)) exits);
                      branch_site;
                      exit_sites =
                        Array.of_list (List.map (fun (_, _, s) -> s) exits);
                      dinstrs = [||];
                      dguards = [||];
                      dconsts = [||];
                      dterm = 0;
                    })
                  f.blocks)
           in
           {
             f;
             findex;
             blocks;
             block_index;
             n_regs = f.next_reg;
             n_preds = f.next_pred;
             frame_base;
           })
         prog.funcs)
  in
  let t =
    {
      prog;
      funcs;
      func_index;
      global_base;
      memory_words = !next_addr;
      n_blocks = !block_uid;
      n_branch_sites = !branch_uid;
      block_name = Array.of_list (List.rev !block_names);
      branch_name = Array.of_list (List.rev !branch_names);
    }
  in
  Array.iter (fun pf -> Array.iter (decode_block t) pf.blocks) t.funcs;
  t

let func t name =
  match Hashtbl.find_opt t.func_index name with
  | Some i -> t.funcs.(i)
  | None -> invalid_arg ("Layout.func: unknown function " ^ name)

(* Dense id of a block identified by function name and label. *)
let block_uid_of t fname label =
  let pf = func t fname in
  match Hashtbl.find_opt pf.block_index label with
  | Some i -> pf.blocks.(i).uid
  | None ->
    invalid_arg
      (Printf.sprintf "Layout.block_uid_of: %s has no block %s" fname label)
