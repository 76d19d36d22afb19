(** Shared vocabulary of the six benchmark applications.

    Every application comes in four versions, matching Section 5 of the
    paper: the base TreadMarks program, the compiler-optimized TreadMarks
    program (with cumulative optimization levels as in Figure 6), a
    hand-coded PVMe-style message-passing program, and (except IS) an
    XHPF-style message-passing program over the mini-HPF run-time. *)

(** Cumulative optimization levels of Figure 6. *)
type opt_level =
  | Base
  | Comm_aggr  (** communication aggregation: consistency-preserving
                   Validates, one diff request per writer *)
  | Cons_elim  (** + consistency elimination: WRITE_ALL family *)
  | Sync_merge  (** + merging data movement with synchronization *)
  | Push_opt  (** + replacing barriers with Push *)

val opt_level_name : opt_level -> string

(** Outcome of one parallel run. Built with {!make_result} so optional
    fields can be added without revisiting every construction site. *)
type result = {
  time_us : float;  (** parallel virtual execution time *)
  stats : Dsm_sim.Stats.t;  (** aggregate over processors *)
  max_err : float;  (** max |difference| against the sequential reference *)
  digest : string;
      (** content digest of the final shared state through the protocol
          ({!Dsm_tmk.Tmk.digest}), when the run asked for it with
          [tmk ~digest:true]; [""] otherwise (and always for the
          message-passing versions, which have no shared state). Kept a
          plain string so memoized results never pin run-time state. *)
  homes : (int * int) list;
      (** page-to-home assignments the run made ({!Dsm_tmk.Tmk.homes}),
          snapshotted before the digest pass; [[]] for the message-passing
          versions and for backends that assign none. The first-touch
          determinism regression compares these across traced and
          untraced runs. *)
  classes : (int * string * int) list;
      (** final per-page (page, protocol, owner) classification of the
          adaptive backend ({!Dsm_tmk.Tmk.adapt_classes}), snapshotted
          with [homes]; [[]] elsewhere. Compared against the static
          sharing-pattern predictions by the plan grading. *)
  latencies_us : float array option;
      (** per-operation latencies of a transaction-style workload (KV),
          sorted ascending; [None] for the kernels. Plain data — memoized
          results must never pin run-time state. *)
  nops : int;
      (** operations completed by a transaction-style workload, the
          denominator of msgs/op and bytes/op; [0] for the kernels. *)
}

val make_result :
  time_us:float ->
  stats:Dsm_sim.Stats.t ->
  max_err:float ->
  ?digest:string ->
  ?homes:(int * int) list ->
  ?classes:(int * string * int) list ->
  ?latencies_us:float array ->
  ?nops:int ->
  unit ->
  result
(** Smart constructor with neutral defaults for every optional field
    ([digest = ""], [homes = []], [classes = []], [latencies_us = None],
    [nops = 0]). *)

val combine_err : float -> float -> float

val memo : ('k, 'v) Hashtbl.t -> 'k -> (unit -> 'v) -> 'v
(** [memo tbl key compute] returns the cached value for [key], computing
    and caching it otherwise. Used for the apps' sequential reference
    solutions, which are shared across runs. *)

(** {2 Off-heap references}

    A memoized reference lives as long as the process and is only read,
    so the apps keep it in a Bigarray, outside the OCaml heap. The major
    GC lets garbage grow in proportion to the heap it manages: a
    reference held there raises the peak heap of every later run by more
    than its own size, by an amount that depends on where the
    collector's cycles fall relative to the runs. *)

type floats =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val floats_of_array : float array -> floats

val floats_of_columns : float array array -> floats
(** The columns laid end to end: with columns of [m] elements, column [j]
    element [i] is at [(j * m) + i]. *)

val ints_of_array : int array -> ints

(** The informal [APP] module type that used to live here was replaced
    by the first-class {!Dsm_apps.Workload.S}, which splits [params]
    into size and behavior knobs; the workloads are enumerated once in
    {!Dsm_apps.Registry}. *)
