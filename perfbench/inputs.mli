(** Everything a workload run is given, generated from the workload seed.

    The program sees only these values: GP seeds, study sizes, benchmark
    lists and the serve clients' study lists.  The same seed always gives
    the same inputs. *)

type study = {
  kind : Driver.Study.kind;
  benches : string list;  (** one bench = a specialization *)
  params : Gp.Params.t;
}

type workload =
  | Sched_seq
  | Prefetch_par
  | Hb_serve

val workloads : (string * workload) list
(** Names as the command line spells them. *)

val why : workload -> string
(** The one-sentence reason the workload is in the benchmark. *)

val cores : unit -> int
(** Detected cores: the pool width and the serve client count bound. *)

type rep =
  | Local of study
  | Served of { clients : study list list; jobs : int }
      (** one study list per client connection, run back to back; the
          daemon is restarted halfway through every list *)

val rep : workload -> seed:int -> int -> rep
(** [rep w ~seed i] is the [i]-th repetition's inputs; repetitions of one
    seed differ from each other but repeat across runs. *)

val backend : workload -> Gp.Parmap.backend
val jobs : workload -> int

val describe : rep -> string
(** One line listing the derived inputs. *)
