(** Regular-section access analysis (Section 4.1 of the paper).

    The program is segmented into regions of code between consecutive
    synchronization statements; for the steady state, the body of the
    outermost loop that contains synchronization is treated as a cycle, so
    the region following the {e last} barrier of the loop body wraps around
    to the statements before the first (this is how the paper's Jacobi
    example obtains [Fprec(p1) = b2]).

    For every region the analysis produces, per shared array, a symbolic RSD
    summarizing the accesses, with a tag from
    [{read}, {write}, {read,write}] plus the [write-first] attribute when
    every read is covered by a preceding definition in the region. *)

type tag = { read : bool; write : bool; write_first : bool }

type summary_entry = {
  arr : string;
  rsd : Sym_rsd.t;  (** union of all accesses *)
  reads : Sym_rsd.t option;  (** union of the read accesses *)
  writes : Sym_rsd.t option;  (** union of the write accesses *)
  tag : tag;
}

type region = {
  after_sync : int;  (** traversal index of the sync stmt opening the region *)
  before_sync : int;  (** index of the sync stmt closing the region *)
  summary : summary_entry list;
}

type result = {
  regions : region list;
  sync_count : int;
  cyclic : bool;  (** whether a steady-state loop was found *)
}

val index_syncs : Ir.program -> (int * Ir.stmt) list
(** Pre-order traversal indices of all synchronization statements; the
    indices used by {!region.after_sync}. *)

val analyze : Ir.program -> nprocs:int -> result

(** {2 Accessors used by the static lint} *)

val find_region_after : result -> int -> region option
(** The region opened by the sync statement with the given traversal
    index. *)

val find_region_before : result -> int -> region option
(** The region closed by the sync statement with the given traversal
    index (its preceding region). *)

val entry : region -> string -> summary_entry option
(** The region's summary entry for one shared array. *)

val body_summary : Ir.program -> nprocs:int -> summary_entry list
(** Per-array summary of {e every} shared access in the program body,
    ignoring region boundaries: the fallback access envelope for programs
    without a steady-state loop. *)

val pp_region : Format.formatter -> region -> unit
