(** Shared command-line vocabulary of the [dsm_run] and [dsm_lint]
    executables: one source of truth for application and
    optimization-level names, processor-count parsing, coherence
    backend selection and the network fault-injection arguments. *)

(** {1 Applications and levels} *)

val apps : (string * (module Dsm_apps.Workload.S)) list
(** The workload registry ({!Dsm_apps.Registry.all}), keyed by CLI
    names: the six paper kernels plus the [kv] session cache. *)

val find_app : string -> (module Dsm_apps.Workload.S) option
val app_names : string list

val levels : (string * Dsm_apps.App_common.opt_level) list
(** Optimization levels in increasing order, keyed by their CLI names
    (base, aggr, cons, merge, push). *)

val find_level : string -> Dsm_apps.App_common.opt_level option
(** Accepts the CLI name or the printed name
    ({!Dsm_apps.App_common.opt_level_name}), so [merge] and [sync-merge]
    select the same level. *)

val level_names : string list

val level_error : string -> string
(** [unknown level: NAME (choices: ...)], listing both spellings. *)

(** {1 List parsing} *)

val parse_name_list :
  known:string list -> what:string -> string -> (string list, string) result
(** [parse_name_list ~known ~what s] parses a comma-separated subset of
    [known]; ["all"] means all of them. [what] names the domain in the
    error message. *)

val parse_procs : string -> (int list, string) result
(** Comma-separated positive processor counts. *)

(** {1 Shared terms} *)

type t = {
  backend : Dsm_sim.Config.backend_kind;
  home_policy : Dsm_sim.Config.home_policy;
  net_drop : float;
  net_dup : float;
  net_jitter_us : float;
  net_seed : int;
  replicas : int;
  ckpt_every : int;
  crash : (int * float * float) list;
}
(** Arguments common to every executable that builds a
    {!Dsm_sim.Config.t}. *)

val term : t Cmdliner.Term.t
(** [--backend/-b], [--home-policy], [--drop], [--dup], [--jitter],
    [--net-seed], [--replicas], [--ckpt-every] and [--crash]. *)

val config : ?procs:int -> t -> (Dsm_sim.Config.t, string) result
(** Specialize {!Dsm_sim.Config.default} with the parsed arguments and
    validate the processor count (at least 1, reported as [--procs]),
    then the resulting network fault plan and crash schedule (every
    error path shares the {!Dsm_net.Plan.field_error} message format). *)

val plan_conv : Dsm_tmk.Proto_plan.t Cmdliner.Arg.conv
(** Loads and validates a protocol-placement plan file at parse time;
    schema violations surface as usage errors in
    {!Dsm_net.Plan.field_error}'s field/value/range format. *)

val plan_t : Dsm_tmk.Proto_plan.t option Cmdliner.Term.t
(** [--plan FILE] for [dsm_run]: seed the adaptive/hlrc backend from a
    static protocol-placement plan. *)

(** {1 Per-executable terms with shared help text} *)

val app_t : string Cmdliner.Term.t
(** [--app/-a], defaulting to [jacobi]. *)

val knobs_t : (string * string) list Cmdliner.Term.t
(** Workload behavior knobs ([--mix], [--skew], [--sessions],
    [--granularity], [--keys], [--shards]) collected as key/value pairs
    and applied through {!Dsm_apps.Workload.S.with_knob}; a knob the
    selected workload does not understand (or a value out of range) is
    rejected with the standard field/value/range message. *)

val procs_t : int Cmdliner.Term.t
(** [--procs/-p] as a single count, defaulting to 8. *)

val procs_list_t : string Cmdliner.Term.t
(** [--procs/-p] as a comma-separated list, defaulting to [1,2,4,8]. *)

val level_t : default:string -> string Cmdliner.Term.t
(** [--level/-l] with the given default ([all] allowed for list-valued
    consumers). *)
