(** Static cross-processor data-race detection.

    LRC is only correct for data-race-free programs (Section 2 of the
    paper): two accesses to the same location by different processors,
    at least one a write, must be ordered by synchronization. The
    detector instantiates each region's symbolic access summaries
    ({!Dsm_compiler.Access.analyze}) under every processor's bindings
    and intersects the resulting byte ranges pairwise.

    Regions are grouped into {e barrier epochs}: consecutive regions
    separated only by lock operations run concurrently, so conflicts are
    checked both inside one region and across the regions of an epoch.
    Two accesses both inside critical sections of the same lock are
    ordered by it and exempt. A [Push] statement is treated as the
    barrier it replaced — legal only on programs whose pushes the
    {!Verify} pass accepts, which proves no conflicting access crosses
    that point outside the pushed data.

    Overlaps involving an inexact summary (conditionals, coupled
    subscripts) are reported at {!Diag.severity.Warning} — the sections
    are over-approximations, so the race is possible but not proved.
    Exact overlaps are {!Diag.severity.Error}s. *)

val check : Dsm_compiler.Ir.program -> nprocs:int -> Diag.t list

(** {1 Epoch structure} (shared with the sharing-pattern classifier) *)

val protect :
  (int * Dsm_compiler.Ir.stmt) list ->
  Dsm_compiler.Access.region ->
  int option
(** The lock whose critical section contains the region, if any
    ([syncs] is {!Dsm_compiler.Access.index_syncs} output). *)

val epochs :
  (int * Dsm_compiler.Ir.stmt) list ->
  Dsm_compiler.Access.result ->
  Dsm_compiler.Access.region list list
(** Regions grouped into barrier epochs, in program order. For cyclic
    (steady-state) programs the leading lock-opened regions are folded
    into the last epoch — they are the tail of the previous iteration's
    final epoch. *)
