(* Set-associative LRU cache hierarchy with software prefetch support.

   Each level is a set-associative array of line tags with LRU replacement
   implemented as per-line last-use timestamps.  A load probes L1, L2, L3
   and main memory in order, fills the line into every level it missed in,
   and reports the extra stall cycles of the level that hit.  Stores are
   buffered (no stall) and write-allocate.  Prefetches fill like loads but
   stall nothing; at most [prefetch_queue] prefetches may be in flight per
   [drain] window — the rest are dropped, modelling memory-queue
   saturation. *)

type level = {
  cfg : Config.cache_level;
  assoc : int;
  line_shift : int;          (* log2 of the line size in words *)
  set_mask : int;            (* sets - 1 *)
  tags : int array;          (* sets * assoc; [invalid] = empty way *)
  last_use : int array;
  mutable clock : int;
}

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

type t = {
  levels : level array;      (* l1, l2, l3 *)
  memory_extra : int;
  prefetch_queue : int;
  mutable inflight_prefetches : int;
  stats : stats;
}

(* The tag of an empty way.  Not -1: a negative address has a negative
   line, and line -1 would hit every empty way.  A line equals [min_int]
   only for [line_words = 1] and [addr = min_int]. *)
let invalid = min_int

let is_pow2 n = n > 0 && n land (n - 1) = 0

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

(* Line size and set count must be powers of two, so that indexing is a
   shift and a mask; every stock machine in [Config] complies. *)
let make_level (cfg : Config.cache_level) : level =
  if cfg.assoc < 1 || not (is_pow2 cfg.line_words) then
    invalid_arg
      (Printf.sprintf
         "Cache: line size %d words, %d-way: need a power-of-two line size \
          and at least one way"
         cfg.line_words cfg.assoc);
  let sets = max 1 (cfg.size_words / (cfg.line_words * cfg.assoc)) in
  if not (is_pow2 sets) then
    invalid_arg
      (Printf.sprintf
         "Cache: %d words in %d-word lines, %d-way, give %d sets: need a \
          power of two"
         cfg.size_words cfg.line_words cfg.assoc sets);
  {
    cfg;
    assoc = cfg.assoc;
    line_shift = log2 cfg.line_words;
    set_mask = sets - 1;
    tags = Array.make (sets * cfg.assoc) invalid;
    last_use = Array.make (sets * cfg.assoc) 0;
    clock = 0;
  }

let create (cfg : Config.t) : t =
  {
    levels = [| make_level cfg.l1; make_level cfg.l2; make_level cfg.l3 |];
    memory_extra = cfg.memory_extra_latency;
    prefetch_queue = cfg.prefetch_queue;
    inflight_prefetches = 0;
    stats =
      {
        loads = 0;
        stores = 0;
        prefetches = 0;
        prefetches_dropped = 0;
        l1_hits = 0;
        l2_hits = 0;
        l3_hits = 0;
        memory_accesses = 0;
        stall_cycles = 0;
      };
  }

(* The line of [addr] and the first way of its set.  A negative address
   (a wild access the interpreter is about to trap on, after the observer
   has seen it) has a negative line, and the mask still maps it to a
   valid set, so the model stays total and the interpreter's [Trap] is
   what the caller sees.  For non-negative addresses the shift and mask
   are exactly [addr / line_words] and [line mod sets]. *)
let[@inline] line_of (l : level) addr = addr asr l.line_shift
let[@inline] set_base (l : level) line = (line land l.set_mask) * l.assoc

(* Probe one level; on hit, refresh LRU and return true.  On miss return
   false without filling (fill happens separately so we can fill all missed
   levels once the hit level is known). *)
let probe (l : level) (addr : int) : bool =
  let line = line_of l addr in
  let base = set_base l line in
  l.clock <- l.clock + 1;
  let i = ref 0 in
  while !i < l.assoc && l.tags.(base + !i) <> line do
    incr i
  done;
  if !i < l.assoc then begin
    l.last_use.(base + !i) <- l.clock;
    true
  end
  else false

let fill (l : level) (addr : int) : unit =
  let line = line_of l addr in
  let base = set_base l line in
  l.clock <- l.clock + 1;
  (* Find an invalid way or the LRU way. *)
  let victim = ref 0 in
  let oldest = ref max_int in
  (try
     for i = 0 to l.assoc - 1 do
       if l.tags.(base + i) = invalid then begin
         victim := i;
         raise Exit
       end;
       if l.last_use.(base + i) < !oldest then begin
         oldest := l.last_use.(base + i);
         victim := i
       end
     done
   with Exit -> ());
  l.tags.(base + !victim) <- line;
  l.last_use.(base + !victim) <- l.clock

(* Where does this access hit?  Fills all levels above the hit level. *)
let lookup_and_fill (t : t) (addr : int) : int =
  if probe t.levels.(0) addr then begin
    t.stats.l1_hits <- t.stats.l1_hits + 1;
    t.levels.(0).cfg.extra_latency
  end
  else if probe t.levels.(1) addr then begin
    t.stats.l2_hits <- t.stats.l2_hits + 1;
    fill t.levels.(0) addr;
    t.levels.(1).cfg.extra_latency
  end
  else if probe t.levels.(2) addr then begin
    t.stats.l3_hits <- t.stats.l3_hits + 1;
    fill t.levels.(0) addr;
    fill t.levels.(1) addr;
    t.levels.(2).cfg.extra_latency
  end
  else begin
    t.stats.memory_accesses <- t.stats.memory_accesses + 1;
    fill t.levels.(0) addr;
    fill t.levels.(1) addr;
    fill t.levels.(2) addr;
    t.memory_extra
  end

(* DELIBERATE MODELLING CHOICE (see DESIGN.md): the queue retires entries
   only when the pipeline stalls for a completed demand miss — a
   primitive, non-work-conserving MSHR.  A fully work-conserving queue
   (retiring on the first demand touch of each prefetched line) makes
   sustained multi-stream prefetching uniformly beneficial and erases the
   "ORC overzealously prefetches" phenomenon the paper reports from its
   real Itanium; this model reproduces it: loops with many concurrent
   reference streams saturate the queue and lose, few-stream loops win. *)
let load (t : t) (addr : int) : int =
  t.stats.loads <- t.stats.loads + 1;
  let stall = lookup_and_fill t addr in
  if stall > 0 && t.inflight_prefetches > 0 then
    t.inflight_prefetches <- t.inflight_prefetches - 1;
  t.stats.stall_cycles <- t.stats.stall_cycles + stall;
  stall

let store (t : t) (addr : int) : unit =
  t.stats.stores <- t.stats.stores + 1;
  ignore (lookup_and_fill t addr)

(* Backpressure paid when a prefetch finds the memory queue full: the
   in-order pipeline stalls until an entry frees, and the prefetch is
   dropped without filling anything.  This is the "saturate memory
   queues" failure mode of overzealous prefetching the paper describes;
   it is what makes issuing a prefetch per stream in a 12-stream loop a
   pessimization while a selective prefetcher wins. *)
let queue_full_backpressure = 8

let prefetch (t : t) (addr : int) : int =
  t.stats.prefetches <- t.stats.prefetches + 1;
  if probe t.levels.(0) addr then
    (* Redundant prefetch of a resident line: consumed an issue slot but
       no memory transaction. *)
    0
  else if t.inflight_prefetches >= t.prefetch_queue then begin
    t.stats.prefetches_dropped <- t.stats.prefetches_dropped + 1;
    t.stats.stall_cycles <- t.stats.stall_cycles + queue_full_backpressure;
    queue_full_backpressure
  end
  else begin
    t.inflight_prefetches <- t.inflight_prefetches + 1;
    ignore (lookup_and_fill t addr);
    0
  end

let stats t = t.stats
