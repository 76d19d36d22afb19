(* dsm_run: command-line driver for the benchmark applications.

     dsm_run --app jacobi --version tmk --level push --size large
     dsm_run --app is --version pvm --procs 4
     dsm_run --app gauss --backend hlrc --home-policy cyclic
     dsm_run --app gauss --trace gauss.jsonl --check
     dsm_run --list

   Prints the virtual execution time, speedup over the uniprocessor time,
   and the protocol statistics of the run. [--backend
   {lrc,hlrc,inval,adaptive}] selects the coherence protocol of the tmk
   run-time. [--trace FILE] records the protocol events of a tmk run as
   JSON lines and prints a per-phase summary; [--check] replays the trace
   through the protocol invariant checker; [--recheck FILE] replays a
   previously written trace file instead of running anything (unknown
   event kinds and a truncated final line are warnings, not errors, so
   traces from newer builds or crashed runs stay usable).
   [--drop R --dup R --jitter US --net-seed N] inject
   deterministic network faults: messages are dropped/duplicated/delayed
   and recovered by the reliable-delivery layer, whose costs appear in
   the statistics (after a [fault plan:] line naming the plan).

   The argument vocabulary shared with dsm_lint (applications, levels,
   processors, backend, network faults) lives in {!Core.Harness.Cli}. *)

open Cmdliner
module A = Core.Apps.Common
module Workload = Core.Apps.Workload
module Cli = Core.Harness.Cli

(* The processor count a trace was recorded at is the length of its
   vector clocks (the first event's: the checker flags any event of
   another shape). An explicit [--procs] must agree with it. *)
let recheck_nprocs procs events =
  let recorded =
    match events with
    | [] -> None
    | e :: _ -> Some (Array.length e.Core.Trace.Event.vc)
  in
  match (procs, recorded) with
  | Some p, Some n when p <> n ->
      Error
        (Printf.sprintf
           "--procs: %d does not match the trace, whose vector clocks have \
            %d components"
           p n)
  | Some p, _ | None, Some p -> Ok p
  | None, None -> Ok Core.Config.default.Core.Config.nprocs

(* Replay a trace file through the checker without running anything.
   Malformed input degrades to warnings: unknown event kinds are skipped
   with a count (trace written by a newer build), and a torn final line
   (crash mid-write) is reported but does not fail the load. *)
let recheck_file ~procs ~strict file =
  match Core.Trace.Event.load_jsonl file with
  | exception Sys_error msg -> `Error (false, "cannot read trace: " ^ msg)
  | { Core.Trace.Event.events; warnings; unknown_kinds } -> (
      match recheck_nprocs procs events with
      | Error e -> `Error (false, e)
      | Ok nprocs -> (
          List.iter
            (fun (line, msg) ->
              Format.eprintf "%s:%d: warning: %s@." file line msg)
            warnings;
          if unknown_kinds > 0 then
            Format.eprintf "%s: skipped %d events of unknown kind@." file
              unknown_kinds;
          (* unknown kinds are already in [warnings] — no double count *)
          let nwarnings = List.length warnings in
          match Core.Trace.Check.run ~nprocs events with
          | [] when strict && nwarnings > 0 ->
              Format.printf "%s: %d events, 0 violations, %d warnings@." file
                (List.length events) nwarnings;
              `Error
                ( false,
                  "trace loaded with warnings (tolerated without \
                   --strict-recheck)" )
          | [] ->
              Format.printf "%s: %d events, 0 violations@." file
                (List.length events);
              `Ok ()
          | vs ->
              Format.printf "@[<v>%s: %d events, %d violations@,%a@]@." file
                (List.length events) (List.length vs)
                (Format.pp_print_list Core.Trace.Check.pp_violation)
                vs;
              `Error (false, "protocol invariant violations found")))

let run app version level size procs common sync trace_file check recheck
    strict_recheck digest proto_plan prof list knobs =
  if list then begin
    List.iter
      (fun (name, m) ->
        let module W = (val m : Workload.S) in
        Format.printf "%-8s sizes=%-12s levels=%s%s%s@." name
          (String.concat "," (List.map fst W.sizes))
          (String.concat "," (List.map A.opt_level_name W.levels))
          (if Option.is_some W.xhpf then " (+xhpf)" else "")
          (match W.knob_doc with
          | [] -> ""
          | ks ->
              " knobs=" ^ String.concat "," (List.map fst ks));
        List.iter
          (fun (k, doc) -> Format.printf "           --%s: %s@." k doc)
          W.knob_doc)
      Cli.apps;
    `Ok ()
  end
  else
    match recheck with
    | Some file -> recheck_file ~procs ~strict:strict_recheck file
    | None -> (
    let procs =
      Option.value procs ~default:Core.Config.default.Core.Config.nprocs
    in
    match Cli.find_app app with
    | None -> `Error (false, "unknown application: " ^ app)
    | Some m -> (
        let module W = (val m : Workload.S) in
        match List.assoc_opt size W.sizes with
        | None ->
            `Error
              ( false,
                Printf.sprintf "unknown size for %s: %s (choices: %s)" app
                  size
                  (String.concat ", " (List.map fst W.sizes)) )
        | Some wsize -> (
        match
          Workload.apply_knobs ~with_knob:W.with_knob
            ~default:W.default_behavior knobs
        with
        | Error e -> `Error (false, e)
        | Ok behavior -> (
        match Cli.config ~procs common with
        | Error e -> `Error (false, e)
        | Ok cfg ->
        let plan = Core.Net_plan.of_config cfg in
        let sink =
          if (trace_file <> None || check) && version <> "tmk" then None
          else if trace_file <> None || check then
            Some (Core.Trace.Sink.create ~nprocs:procs ())
          else None
        in
        if prof then begin
          Core.Prof.enable ();
          Core.Sampler.start ()
        end;
        (* a message-passing version rejects, before running, a processor
           count its data partition cannot cover *)
        let mp_run run =
          match run () with
          | r -> Ok r
          | exception Invalid_argument e -> Error ("--procs: " ^ e)
        in
        let result =
          match version with
          | "tmk" -> (
              match Cli.find_level level with
              | None -> Error (Cli.level_error level)
              | Some l -> (
                  (* a plan whose geometry disagrees with the run (procs,
                     page size, program) is rejected by Tmk.make *)
                  match
                    W.tmk ?trace:sink ~digest ?plan:proto_plan cfg
                      ~size:wsize ~behavior ~level:l ~async:(not sync)
                  with
                  | r -> Ok r
                  | exception Invalid_argument e ->
                      Error ("plan rejected: " ^ e)))
          | "pvm" ->
              if proto_plan <> None then
                Format.eprintf
                  "note: --plan applies to the tmk version only@.";
              mp_run (fun () -> W.pvm cfg ~size:wsize ~behavior)
          | "xhpf" -> (
              match W.xhpf with
              | Some f -> mp_run (fun () -> f cfg ~size:wsize ~behavior)
              | None -> Error "XHPF cannot parallelize this application")
          | v -> Error ("unknown version: " ^ v)
        in
        if prof then begin
          Core.Sampler.stop ();
          Core.Prof.disable ()
        end;
        (match result with
        | Error e -> `Error (false, e)
        | Ok r ->
            let seq = W.seq_time_us wsize in
            let version_name =
              if version = "tmk" then
                "tmk/" ^ Core.Config.backend_name cfg.Core.Config.backend
              else version
            in
            Format.printf "%s (%s), %s, %d processors@." W.name
              (W.size_name wsize) version_name procs;
            Format.printf "  uniprocessor time: %12.0f us@." seq;
            Format.printf "  parallel time:     %12.0f us  (speedup %.2f)@."
              r.A.time_us (seq /. r.A.time_us);
            Format.printf "  verification:      max error %g %s@." r.A.max_err
              (if r.A.max_err <= 1e-6 then "(correct)" else "(WRONG)");
            Format.printf "  %a@." Core.Stats.pp r.A.stats;
            if digest && r.A.digest <> "" then
              Format.printf "  digest:            %s@." r.A.digest;
            if prof then begin
              Format.printf "@[<v>  host-cost profile:@,%a@]@."
                Core.Prof.pp_table ();
              Format.printf "@[<v>  sampled host stacks:@,%a@]@."
                Core.Sampler.pp ()
            end;
            if not (Core.Net_plan.is_passthrough plan) then
              Format.printf "  fault plan:        %a@." Core.Net_plan.pp plan;
            (match sink with
            | None ->
                if trace_file <> None || check then
                  Format.eprintf
                    "note: --trace/--check apply to the tmk version only@.";
                `Ok ()
            | Some sink ->
                let events = Core.Trace.Sink.events sink in
                Format.printf "  trace: %d events@."
                  (Core.Trace.Sink.emitted sink);
                Format.printf "%a@." Core.Harness.Phases.pp
                  (Core.Harness.Phases.of_events events);
                let write_err =
                  match trace_file with
                  | Some file -> (
                      match open_out file with
                      | oc ->
                          Fun.protect
                            ~finally:(fun () -> close_out oc)
                            (fun () -> Core.Trace.Sink.write_jsonl oc sink);
                          Format.printf "  trace written to %s@." file;
                          None
                      | exception Sys_error msg ->
                          Some ("cannot write trace: " ^ msg))
                  | None -> None
                in
                match write_err with
                | Some msg -> `Error (false, msg)
                | None ->
                if check then begin
                  match Core.Trace.Check.run ~nprocs:procs events with
                  | [] ->
                      Format.printf "  checker: 0 violations@.";
                      `Ok ()
                  | vs ->
                      Format.printf "@[<v>  checker: %d violations@,%a@]@."
                        (List.length vs)
                        (Format.pp_print_list Core.Trace.Check.pp_violation)
                        vs;
                      `Error (false, "LRC invariant violations found")
                end
                else `Ok ()))))))

let cmd =
  let version =
    Arg.(
      value & opt string "tmk"
      & info [ "version"; "v" ] ~doc:"Version: tmk, pvm or xhpf.")
  in
  let size =
    Arg.(value & opt string "small" & info [ "size"; "s" ] ~doc:"large or small.")
  in
  let sync =
    Arg.(value & flag & info [ "sync" ] ~doc:"Synchronous data fetching.")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record the protocol events of the (tmk) run to $(docv) as JSON \
             lines and print a per-phase summary.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Replay the recorded trace through the LRC invariant checker; \
             exit non-zero on violations.")
  in
  let recheck =
    Arg.(
      value
      & opt (some string) None
      & info [ "recheck" ] ~docv:"FILE"
          ~doc:
            "Replay a previously recorded JSONL trace through the invariant \
             checker instead of running an application (the processor \
             count is the trace's own; a $(b,--procs) that disagrees is an \
             error). Unknown event kinds and a truncated \
             final line are reported as warnings and skipped.")
  in
  let strict_recheck =
    Arg.(
      value & flag
      & info [ "strict-recheck" ]
          ~doc:
            "With $(b,--recheck): exit non-zero when the trace loaded with \
             any warnings (unknown event kinds, torn final line), not only \
             on invariant violations — for CI, where a silently truncated \
             trace must not pass as checked.")
  in
  let digest =
    Arg.(
      value & flag
      & info [ "digest" ]
          ~doc:
            "Print a content digest of the final shared state, read through \
             the protocol after the run (tmk versions only). Two runs that \
             print the same digest ended with bit-identical shared memory — \
             the basis of the crash-recovery equivalence check in CI.")
  in
  let prof =
    Arg.(
      value & flag
      & info [ "prof" ]
          ~doc:
            "Profile the simulator's own host cost: print a per-subsystem \
             self-time and allocation table after the run. Simulated results \
             are unchanged.")
  in
  let list = Arg.(value & flag & info [ "list" ] ~doc:"List applications.") in
  let knobs = Cli.knobs_t in
  let doc = "run a benchmark application on the simulated DSM" in
  Cmd.v
    (Cmd.info "dsm_run" ~doc)
    Term.(
      ret
        (const run $ Cli.app_t $ version $ Cli.level_t ~default:"push" $ size
       $ Cli.procs_t $ Cli.term $ sync $ trace_file $ check $ recheck
       $ strict_recheck $ digest $ Cli.plan_t $ prof $ list $ knobs))

let () = exit (Cmd.eval cmd)
