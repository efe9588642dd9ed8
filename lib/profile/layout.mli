(** Memory layout and pre-resolution of an IR program for execution.

    The interpreter and the timing simulator execute prepared programs:
    labels resolved to block indices, globals and per-function spill
    frames assigned disjoint word addresses, and every block and static
    branch site given a dense global id so observers can use arrays. *)

(** Pre-decoded instruction forms.  Everything the interpreter would
    otherwise resolve per dynamic instruction — global bases, frame
    bases, callee indices, intrinsic arity, exit sites — is folded in at
    prepare time.  Unresolvable names decode to markers that raise the
    reference interpreter's exact exception, and only on execution.

    Operands are int slots: a slot [r >= 0] is register [r]; a negative
    slot [s] is the constant [dconsts.(lnot s)] of the owning block
    ([Imm k] stored as [float_of_int k], [Fimm f] as [f]).  A negative
    register index decodes to [max_int], so reading it fails the same
    bounds check as in the reference interpreter. *)

type daddr = {
  dframe : int;  (** pre-resolved frame base; 0 for global/unknown space *)
  dbase : int;   (** operand slot *)
  doffset : int; (** operand slot *)
}

type dinstr =
  | Dibin of Ir.Types.ibinop * int * int * int
  | Dfbin of Ir.Types.fbinop * int * int * int
  | Dfunop of Ir.Types.funop * int * int
  | Dicmp of Ir.Types.icmp * int * int * int
  | Dfcmp of Ir.Types.icmp * int * int * int
  | Dmov of int * int
      (** also [Itof], and [Gaddr] with its base as a constant *)
  | Dftoi of int * int
  | Dintrin1 of Ir.Types.intrinsic * int * int
  | Dintrin2 of Ir.Types.intrinsic * int * int * int
  | Dload of int * daddr
  | Dstore of daddr * int
  | Dprefetch of daddr
  | Dcall of int * int * int array
      (** dest reg (-1: none), callee function index, argument slots *)
  | Demit of int
  | Dpdef of Ir.Types.icmp * int * int * int * int
  | Dpclear of int
  | Dpset of Ir.Types.icmp * int * int * int
  | Dpor of Ir.Types.icmp * int * int * int
  | Dexit of int * int                 (** branch site uid, target index *)
  | Draise_notfound                    (** unknown global *)
  | Draise_invalid of string           (** unknown function/frame *)
  | Dtrap_arity                        (** intrinsic arity mismatch *)

type pblock = {
  uid : int;                          (** global block id *)
  label : Ir.Types.label;
  instrs : Ir.Instr.t array;
  term : Ir.Func.terminator;
  mutable term_targets : int * int;   (** resolved; -1 when unused *)
  exit_targets : (int * int) array;   (** (instr position, target) *)
  branch_site : int;                  (** -1 if the terminator is not Br *)
  exit_sites : int array;             (** aligned with [exit_targets] *)
  mutable dinstrs : dinstr array;     (** pre-decoded mirror of [instrs] *)
  mutable dguards : int array;        (** guards aligned with [dinstrs] *)
  mutable dconsts : float array;      (** constants of negative slots *)
  mutable dterm : int;
      (** slot of the [Br] condition or the [Ret] value (a 0.0 constant
          for a bare [Ret]); unused for [Jmp] *)
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
  n_blocks : int;
  n_branch_sites : int;
  block_name : (string * Ir.Types.label) array;        (** uid -> name *)
  branch_name : (string * Ir.Types.label * int) array;
      (** site -> (function, block, -1 for terminator | instr id) *)
}

val prepare : Ir.Func.program -> t
(** Snapshot; invalidated by any transformation of the program. *)

val func : t -> string -> pfunc
(** @raise Invalid_argument on an unknown function. *)

val block_uid_of : t -> string -> Ir.Types.label -> int
(** @raise Invalid_argument on an unknown block. *)
