(** Jacobi iteration (Section 2 of the paper, Figures 1 and 2):
    nearest-neighbour averaging over a shared grid, interior columns
    block-partitioned. The running example of the paper: the optimized
    versions follow the compiler output of Figure 2 — a
    [Validate(b[...], WRITE_ALL)] after Barrier(1) and Barrier(2) replaced
    by [Push]. All five optimization levels apply. *)

type params = { m : int; iters : int; update_cost : float; copy_cost : float }
(** Grid edge, iteration count, calibrated per-element costs (us). The
    record is exposed so callers can size custom runs, e.g.
    [{ small with m = 128; iters = 3 }]. *)

val bounds : int -> int -> int -> int * int
(** [bounds m nprocs p] — the inclusive interior-column block
    [(lo, hi)] that processor [p] owns. Exposed for the static
    sharing-pattern models ({!Dsm_lint.App_models}). *)

val large : params
val small : params

val run_tmk :
  ?trace:Dsm_trace.Sink.t ->
  ?digest:bool ->
  ?plan:Dsm_tmk.Proto_plan.t ->
  Dsm_sim.Config.t ->
  params ->
  level:App_common.opt_level ->
  async:bool ->
  App_common.result
(** Concrete entry point with an explicit [params] record, kept for
    callers that size custom runs; {!tmk} below is the registry-facing
    equivalent. *)

val run_tmk_inspect :
  ?trace:Dsm_trace.Sink.t ->
  ?digest:bool ->
  ?plan:Dsm_tmk.Proto_plan.t ->
  inspect:(Dsm_tmk.Tmk.system -> unit) ->
  Dsm_sim.Config.t ->
  params ->
  level:App_common.opt_level ->
  async:bool ->
  App_common.result
(** {!run_tmk}, handing the final system state to [inspect] after the
    verification pass (for tests of the run-time's memory footprint). *)

val run_pvm : Dsm_sim.Config.t -> params -> App_common.result
val run_xhpf : (Dsm_sim.Config.t -> params -> App_common.result) option

include Workload.S with type size = params and type behavior = unit
