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

(** Outcome of one parallel run, built by {!finish_tmk} or
    {!finish_mp}. *)
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
  latencies_us : float array option;
      (** per-operation latencies of a transaction-style workload (KV),
          sorted ascending; [None] for the kernels. Plain data — memoized
          results must never pin run-time state. *)
  nops : int;
      (** operations completed by a transaction-style workload, the
          denominator of msgs/op and bytes/op; [0] for the kernels. *)
}

val finish_tmk :
  ?latencies_us:float array ->
  ?nops:int ->
  Dsm_tmk.Tmk.system ->
  digest:bool ->
  inspect:(Dsm_tmk.Tmk.system -> unit) ->
  (unit -> float) ->
  result
(** [finish_tmk sys ~digest ~inspect verify] ends a DSM run, in this
    order: it reads the virtual time and the statistics, runs [verify]
    (the untimed verification pass, which returns the max error), hands
    the system to [inspect], and then, when [digest], runs the digest
    pass ({!Dsm_tmk.Tmk.digest}). [latencies_us] and [nops] (default
    [0]) are copied into the result. *)

val finish_mp :
  ?latencies_us:float array ->
  ?nops:int ->
  Dsm_mp.Mp.system ->
  max_err:float ->
  result
(** Ends a message-passing run: its time and statistics, the given max
    error, no digest. *)

val combine_err : float -> float -> float

val first_owned : np:int -> p:int -> int -> int
(** [first_owned ~np ~p lo] is the first column [j >= lo] with
    [j mod np = p], for [0 <= p < np] and [lo >= 0]: the start of
    processor [p]'s cyclic columns from [lo] on, which a loop then steps
    through by [np]. *)

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
