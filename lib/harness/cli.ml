(* Shared command-line vocabulary of the dsm_run and dsm_lint
   executables. Both drive the same simulated cluster, so the argument
   names, their parsing and their help text live here once: application
   and optimization-level names, processor counts, the coherence
   backend with its home-assignment policy, and the network fault
   injection knobs. Executable-specific arguments (dsm_run's
   --version/--size/--trace, dsm_lint's --program/--mode) stay with
   their executables. *)

open Cmdliner
module Config = Dsm_sim.Config
module A = Dsm_apps.App_common

(* {1 Applications and levels}

   The workload table lives in {!Dsm_apps.Registry}. *)

let levels : (string * A.opt_level) list =
  [
    ("base", A.Base);
    ("aggr", A.Comm_aggr);
    ("cons", A.Cons_elim);
    ("merge", A.Sync_merge);
    ("push", A.Push_opt);
  ]

let level_names = List.map fst levels

(* The short CLI names and the names results are printed under
   ({!Dsm_apps.App_common.opt_level_name}: comm-aggr, cons-elim,
   sync-merge) both select a level. *)
let find_level name =
  List.find_map
    (fun (short, l) ->
      if name = short || name = A.opt_level_name l then Some l else None)
    levels

let level_error name =
  let choice (short, l) =
    let long = A.opt_level_name l in
    if long = short then short else short ^ "|" ^ long
  in
  Printf.sprintf "unknown level: %s (choices: %s)" name
    (String.concat ", " (List.map choice levels))

(* {1 List parsing} *)

let parse_name_list ~known ~what s =
  if s = "all" then Ok known
  else
    let names = String.split_on_char ',' (String.trim s) in
    let bad = List.filter (fun n -> not (List.mem n known)) names in
    if bad <> [] then
      Error
        (Printf.sprintf "unknown %s: %s (known: %s)" what
           (String.concat ", " bad)
           (String.concat ", " known))
    else Ok names

let parse_procs s =
  try
    let ps =
      List.map
        (fun x -> int_of_string (String.trim x))
        (String.split_on_char ',' s)
    in
    if ps = [] || List.exists (fun p -> p < 1) ps then
      Error "processor counts must be positive"
    else Ok ps
  with Failure _ -> Error ("cannot parse processor list: " ^ s)

(* {1 Shared terms} *)

type t = {
  backend : Config.backend_kind;
  home_policy : Config.home_policy;
  net_drop : float;
  net_dup : float;
  net_jitter_us : float;
  net_seed : int;
  replicas : int;
  ckpt_every : int;
  crash : (int * float * float) list;
}

(* Both enum flags parse through {!Config.normalize_enum} (so
   [first_touch] and [first-touch] both work) and list the valid choices
   verbatim in their error message. *)
let enum_conv ~what ~choices ~of_string ~to_string =
  let parse s =
    match of_string s with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown %s: %s (choices: %s)" what s
                (String.concat ", " choices)))
  in
  let print fmt v = Format.pp_print_string fmt (to_string v) in
  Arg.conv (parse, print)

let backend_conv =
  enum_conv ~what:"backend" ~choices:Config.backend_choices
    ~of_string:Config.backend_of_string ~to_string:Config.backend_name

let home_policy_conv =
  enum_conv ~what:"home policy" ~choices:Config.home_policy_choices
    ~of_string:Config.home_policy_of_string
    ~to_string:Config.home_policy_name

let term =
  let backend =
    Arg.(
      value
      & opt backend_conv Config.default.Config.backend
      & info [ "backend"; "b" ] ~docv:"NAME"
          ~doc:
            "Coherence backend: $(b,lrc) (homeless lazy release \
             consistency with distributed diffs, the paper's protocol), \
             $(b,hlrc) (home-based: releasers flush diffs to each page's \
             home eagerly, faults fetch one full copy from the home), \
             $(b,inval) (sequentially consistent directory-based \
             single-writer invalidate) or $(b,adaptive) (per-page online \
             switching between the three by observed sharing pattern).")
  in
  let home_policy =
    Arg.(
      value
      & opt home_policy_conv Config.default.Config.home_policy
      & info [ "home-policy" ] ~docv:"NAME"
          ~doc:
            "Static page-to-home assignment for the hlrc backend: \
             $(b,block), $(b,cyclic) or $(b,first-touch).")
  in
  let drop =
    Arg.(
      value & opt float 0.0
      & info [ "drop" ] ~docv:"RATE"
          ~doc:
            "Probability in [0,1] that a transmitted message copy is lost \
             (recovered by timeout and retransmission).")
  in
  let dup =
    Arg.(
      value & opt float 0.0
      & info [ "dup" ] ~docv:"RATE"
          ~doc:
            "Probability in [0,1] that a delivered message is duplicated \
             (the duplicate is suppressed at the receiver).")
  in
  let jitter =
    Arg.(
      value & opt float 0.0
      & info [ "jitter" ] ~docv:"US"
          ~doc:
            "Maximum extra delivery delay, drawn uniformly per message, in \
             microseconds of virtual time.")
  in
  let net_seed =
    Arg.(
      value & opt int 0
      & info [ "net-seed" ] ~docv:"N"
          ~doc:
            "Seed of the deterministic fault-injection PRNG: the same \
             configuration and seed replay the same faulty run exactly.")
  in
  let replicas =
    Arg.(
      value & opt int 1
      & info [ "replicas" ] ~docv:"K"
          ~doc:
            "Fault tolerance (hlrc backend): replicate every page's home \
             over $(docv) consecutive processors; release-time flushes \
             become quorum writes and misses quorum reads. $(b,1) (the \
             default) is the plain single-home protocol, and the only \
             value the other backends accept.")
  in
  let ckpt_every =
    Arg.(
      value & opt int 0
      & info [ "ckpt-every" ] ~docv:"N"
          ~doc:
            "Fault tolerance: checkpoint each processor's vector clock and \
             per-page watermarks every $(docv) barrier epochs ($(b,0): only \
             the implicit initial checkpoint).")
  in
  let crash_conv =
    let parse s =
      match Dsm_ft.Schedule.parse s with
      | Ok c -> Ok c
      | Error e -> Error (`Msg e)
    in
    let print fmt c =
      Format.pp_print_string fmt
        (String.concat ","
           (List.map
              (fun (p, at, down) -> Printf.sprintf "%d@%g+%g" p at down)
              c))
    in
    Arg.conv (parse, print)
  in
  let crash =
    Arg.(
      value & opt crash_conv []
      & info [ "crash" ] ~docv:"SCHED"
          ~doc:
            "Deterministic crash schedule $(b,P@T+D[,P@T+D...]): \
             processor $(b,P) fail-stops at its first barrier arrival at or \
             after virtual time $(b,T) us and rejoins from its last \
             checkpoint after $(b,D) us of downtime. Requires the hlrc \
             backend with $(b,--replicas) >= 3.")
  in
  let make backend home_policy net_drop net_dup net_jitter_us net_seed
      replicas ckpt_every crash =
    {
      backend;
      home_policy;
      net_drop;
      net_dup;
      net_jitter_us;
      net_seed;
      replicas;
      ckpt_every;
      crash;
    }
  in
  Term.(
    const make $ backend $ home_policy $ drop $ dup $ jitter $ net_seed
    $ replicas $ ckpt_every $ crash)

let config ?(procs = Config.default.Config.nprocs) c =
  let cfg =
    {
      Config.default with
      Config.nprocs = procs;
      backend = c.backend;
      home_policy = c.home_policy;
      net_drop = c.net_drop;
      net_dup = c.net_dup;
      net_jitter_us = c.net_jitter_us;
      net_seed = c.net_seed;
      replicas = c.replicas;
      ckpt_every = c.ckpt_every;
      crash = c.crash;
    }
  in
  (* the processor count first: the fault-plan checks range over it *)
  if procs < 1 then
    Error
      (Dsm_net.Plan.field_error ~field:"--procs" ~value:(string_of_int procs)
         ~range:"[1, max_int]")
  else
  match Dsm_net.Plan.validate (Dsm_net.Plan.of_config cfg) with
  | Error e -> Error ("invalid fault parameters: " ^ e)
  | Ok _ -> (
      match Dsm_ft.Schedule.of_config cfg with
      | Error e -> Error ("invalid fault parameters: " ^ e)
      | Ok _ -> Ok cfg)

(* Protocol-placement plan files parse (and validate) at argument-parse
   time, so a malformed plan is a usage error naming the file and the
   offending field in {!Dsm_net.Plan.field_error}'s field/value/range
   format — the same shape as the fault-plan and crash-schedule
   errors. *)
let plan_conv =
  let parse file =
    match Dsm_tmk.Proto_plan.load file with
    | Ok plan -> Ok plan
    | Error e -> Error (`Msg (Printf.sprintf "plan file %s: %s" file e))
  in
  let print fmt (p : Dsm_tmk.Proto_plan.t) =
    Format.fprintf fmt "<plan %s/%d>" p.Dsm_tmk.Proto_plan.program
      p.Dsm_tmk.Proto_plan.nprocs
  in
  Arg.conv (parse, print)

let plan_t =
  Arg.(
    value
    & opt (some plan_conv) None
    & info [ "plan" ] ~docv:"FILE"
        ~doc:
          "Protocol-placement plan ($(b,dsm_lint plan) output) seeding \
           the adaptive backend's initial per-page protocol and the \
           HLRC home map.")

(* {1 Per-executable terms with shared help text} *)

let app_t =
  Arg.(
    value & opt string "jacobi"
    & info [ "app"; "a" ] ~docv:"NAME"
        ~doc:
          ("Application: " ^ String.concat ", " Dsm_apps.Registry.names ^ "."))

(* Behavior knobs travel as (key, value) strings and are interpreted by
   the selected workload's {!Dsm_apps.Workload.S.with_knob}, so adding a
   knob to one workload does not grow this list of flags' parsing logic —
   only its help text. Unknown/out-of-range values surface as usage errors in
   the standard field/value/range format. *)
let knobs_t =
  let knob key docv doc =
    Arg.(value & opt (some string) None & info [ key ] ~docv ~doc)
  in
  let mix =
    knob "mix" "NAME"
      "Workload knob (kv): operation mix, one of read90, read50, write90."
  in
  let skew =
    knob "skew" "THETA"
      "Workload knob (kv): Zipfian hot-key skew exponent in [0,2] (0 = \
       uniform, 0.99 = classic YCSB skew)."
  in
  let sessions =
    knob "sessions" "N"
      "Workload knob (kv): number of simulated client sessions (operations) \
       across all processors."
  in
  let granularity =
    knob "granularity" "NAME"
      "Workload knob (kv): shared-store allocation granularity, $(b,page) \
       or $(b,object)."
  in
  let keys =
    knob "keys" "N" "Workload knob (kv): size of the key space."
  in
  let shards =
    knob "shards" "N"
      "Workload knob (kv): lock-protected shards per processor."
  in
  let make mix skew sessions granularity keys shards =
    List.filter_map
      (fun (k, v) -> Option.map (fun v -> (k, v)) v)
      [
        ("mix", mix);
        ("skew", skew);
        ("sessions", sessions);
        ("granularity", granularity);
        ("keys", keys);
        ("shards", shards);
      ]
  in
  Term.(const make $ mix $ skew $ sessions $ granularity $ keys $ shards)

let procs_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "procs"; "p" ] ~docv:"N"
        ~doc:"Processor count (default 8; a trace re-check reads its own).")

let procs_list_t =
  Arg.(
    value & opt string "1,2,4,8"
    & info [ "procs"; "p" ] ~docv:"LIST"
        ~doc:"Comma-separated processor counts.")

let level_t ~default =
  let doc =
    "Optimization level"
    ^ (if default = "all" then "s" else "")
    ^ ": "
    ^ String.concat ", " level_names
    ^ if default = "all" then ", or all." else "."
  in
  Arg.(value & opt string default & info [ "level"; "l" ] ~doc)
