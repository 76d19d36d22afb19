(** The experiment grid: every run a bench table reads is one row, named
    by a {!key} that holds everything that determines it, run at most
    once per grid and checked once. The experiments in {!Experiments}
    are views over a grid; two views that ask for the same key share the
    row, and a new axis (a processor count, a cost-model point) is a new
    key rather than a new run loop. *)

(** The version a row runs. *)
type system =
  | Tmk of Dsm_apps.App_common.opt_level * bool
      (** the DSM at a cumulative level, with asynchronous fetching when
          [true] *)
  | Pvm  (** the hand-coded message-passing baseline *)
  | Xhpf  (** the mini-HPF message-passing version *)

type key = {
  app : string;  (** the workload's printed name ({!Dsm_apps.Workload.S.name}) *)
  size : string;
      (** the size label: a key of the workload's [sizes], or the label of
          custom parameters (the scaling rows) *)
  behavior : string;  (** the behavior label; [""] for the default *)
  cfg : Dsm_sim.Config.t;
      (** processors, backend, cost model, network and fault tolerance *)
  system : system;
  digest : bool;  (** whether the run adds the final-memory digest pass *)
}

val check : key -> Dsm_apps.App_common.result -> unit
(** The one result check: fails when the run's maximum error against the
    sequential reference exceeds [1e-6], with a message that names the
    key ("app Jacobi, size small, 8 procs, backend lrc, level base,
    async false"). *)

type t

val create : Dsm_sim.Config.t -> t
(** An empty grid whose views start from the given configuration. *)

val cfg : t -> Dsm_sim.Config.t

val runs : t -> int
(** Rows run so far (a memo hit does not count). *)

val run :
  t ->
  (module Dsm_apps.Workload.S with type size = 's and type behavior = 'b) ->
  ?cfg:Dsm_sim.Config.t ->
  size:string * 's ->
  ?behavior:string * 'b ->
  ?digest:bool ->
  system ->
  Dsm_apps.App_common.result option
(** The row of one key, run and {!check}ed on first use. [cfg] defaults
    to the grid's, [behavior] to the workload's default (label [""]) and
    [digest] to [false]. [None] when the system does not apply: a level
    outside the workload's [levels], or XHPF for a workload without
    it. *)

val backends : (Dsm_sim.Config.backend_kind * string) list
(** The four coherence backends with their column names, in table
    order. *)

(** {1 Registry rows} *)

(** A registry workload at one of its named sizes: the unit the paper's
    tables iterate over. *)
type row = {
  workload : (module Dsm_apps.Workload.S);
  label : string;  (** a key of the workload's [sizes] *)
  name : string;  (** the workload's printed name *)
  size_name : string;  (** e.g. "1024x1024" *)
  seq_time_us : float;  (** virtual uniprocessor time (Table 1) *)
  levels : Dsm_apps.App_common.opt_level list;  (** applicable levels *)
}

val get :
  t ->
  ?cfg:Dsm_sim.Config.t ->
  ?digest:bool ->
  row ->
  system ->
  Dsm_apps.App_common.result option
(** {!run} at the row's size and the workload's default behavior. *)

val kernel : string -> size:string -> row
(** A kernel of {!Dsm_apps.Registry.kernels}, by registry name. *)

val paper : row list
(** The twelve rows of Table 1: the six kernels at their large and small
    data sets, in the paper's order. *)

val deepest : row -> Dsm_apps.App_common.opt_level
(** The row's most optimized applicable level. *)

val speedup : row -> Dsm_apps.App_common.result -> float
(** Uniprocessor time over the run's time. *)

val base : t -> row -> Dsm_apps.App_common.result
(** The fault-driven base version, synchronous fetching. *)

val best_opt : t -> async:bool -> row -> Dsm_apps.App_common.result
(** The fastest optimized level under the given fetch mode ({!base} when
    the workload has none). Asynchronous fetching is the paper's
    "Opt-Tmk" (Section 6.3 found it dominant); synchronous is Table 2's,
    whose point is the elimination of the fault-based mechanisms. *)
