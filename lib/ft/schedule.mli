(** Deterministic crash-stop schedule: parsing, validation and ordering of
    the [(proc, at_us, down_us)] triples carried by
    {!Dsm_sim.Config.t.crash}. Pure configuration — the runtime
    interpretation lives in [Dsm_tmk.Recover]. *)

type event = {
  proc : int;  (** the processor that fail-stops *)
  at_us : float;
      (** virtual-time trigger: the crash executes at the processor's first
          release point (barrier arrival) at or after this time *)
  down_us : float;  (** length of the static down window *)
}

type t = event list
(** Sorted by [at_us], then [proc]. *)

val quorum_of : replicas:int -> int
(** ⌈(k+1)/2⌉: acks required for a quorum write, copies consulted by a
    quorum read. *)

val tolerance : replicas:int -> int
(** [replicas - quorum_of]: concurrent failures per replica group the
    protocol survives without losing an acknowledged write. *)

val parse : string -> ((int * float * float) list, string) result
(** ["P\@T+D[,P\@T+D...]"]: processor [P] crashes at virtual time [T] for
    [D] microseconds; [""] is the empty schedule. *)

val validate :
  nprocs:int ->
  backend:Dsm_sim.Config.backend_kind ->
  replicas:int ->
  ckpt_every:int ->
  (int * float * float) list ->
  (t, string) result
(** Check every fault-tolerance field together: [replicas] within
    [1, nprocs] and above 1 only under the hlrc backend, non-negative
    [ckpt_every], schedule triples in range, per-processor windows
    non-overlapping, a non-empty schedule restricted to the hlrc backend
    with [replicas >= 3], and the maximum number of concurrent windows
    within the {!tolerance} budget. Error messages follow
    {!Dsm_net.Plan.field_error}. *)

val of_config : Dsm_sim.Config.t -> (t, string) result
(** {!validate} applied to the configuration's own fields. *)

val pp : Format.formatter -> t -> unit
