(** Set-associative LRU cache hierarchy with software-prefetch support.

    Loads probe L1/L2/L3/memory, fill upward, and report extra stall
    cycles.  Stores are buffered (no stall) and write-allocate.
    Prefetches that miss L1 occupy a bounded memory queue; completed
    demand misses retire entries; a prefetch arriving at a full queue is
    dropped and stalls the in-order pipe — the "saturate memory queues"
    failure mode of overzealous prefetching the paper describes.

    Every operation is total over [int] addresses: a negative address
    (a wild access the interpreter traps on right after its observer
    sees it) maps to a valid set, so the interpreter's [Trap], not an
    array-bounds error here, is what a simulation raises. *)

type stats = {
  mutable loads : int;
  mutable stores : int;
  mutable prefetches : int;
  mutable prefetches_dropped : int;
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable l3_hits : int;
  mutable memory_accesses : int;
  mutable stall_cycles : int;
}

type t

val create : Config.t -> t
(** Each level's line size ([line_words]) and set count
    ([size_words / (line_words * assoc)]) must be powers of two, so that
    an address indexes its set with a shift and a mask.
    @raise Invalid_argument for any other geometry, or fewer than one
    way. *)

val queue_full_backpressure : int
(** Stall cycles charged per dropped prefetch. *)

val load : t -> int -> int
(** [load t addr] returns the stall cycles beyond a pipelined L1 hit. *)

val store : t -> int -> unit

val prefetch : t -> int -> int
(** Returns backpressure stall cycles (0 unless the queue was full).
    Prefetching a resident line is free and occupies no queue entry. *)

val stats : t -> stats
