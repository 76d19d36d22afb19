(* dsm_lint: static data-race detector and Validate/Push soundness
   verifier for the IR pipeline.

     dsm_lint --program all --procs 1,2,4,8 --mode race
     dsm_lint --program jacobi --procs 2 --mode verify --level push
     dsm_lint --program jacobi --procs 2 --mode diff
     dsm_lint --program all --procs 1,2,4,8            # all modes
     dsm_lint --mode plan --app jacobi --procs 4 --level push \
              --plan-out jacobi.plan.jsonl
     dsm_lint --mode plan --app all --procs 4 --grade

   Modes:
     race    cross-processor data-race detection on the source program
             and on each requested transformation level's output
     verify  Validate/Push soundness of each transformation level
     diff    run the transformed program on the simulated run-time and
             check every dynamic page access against the static summary
     plan    classify every shared page's sharing pattern statically
             (--app selects the benchmark applications), write protocol-
             placement plans for dsm_run --plan, and with --grade run
             the traced adaptive backend at the Base level and grade the
             predictions

   Exit code 0 when nothing above a warning was found (or nothing at
   all under --strict), 1 for warnings under --strict, 2 for errors.

   The argument vocabulary shared with dsm_run (levels, processors,
   backend, network faults) lives in {!Dsm_harness.Cli}; [--backend]
   and the fault knobs select the run-time configuration of the
   dynamic diff mode (race and verify are static and unaffected). *)

open Cmdliner
module Ir = Dsm_compiler.Ir
module Programs = Dsm_compiler.Programs
module Transform = Dsm_compiler.Transform
module Diag = Dsm_lint.Diag
module Race = Dsm_lint.Race
module Verify = Dsm_lint.Verify
module Differential = Dsm_lint.Differential
module Classify = Dsm_lint.Classify
module App_models = Dsm_lint.App_models
module Plan = Dsm_tmk.Proto_plan
module Config = Dsm_sim.Config
module Sink = Dsm_trace.Sink
module Cli = Dsm_harness.Cli
module Registry = Dsm_apps.Registry

let programs : (string * Ir.program) list =
  [
    ("jacobi", Programs.jacobi ~m:48 ~iters:3);
    ("transpose", Programs.transpose ~m:32 ~iters:2);
    ("redblack", Programs.redblack ~n:128 ~iters:3);
    ("masked", Programs.masked ~m:64 ~iters:3);
    ("lock_accum", Programs.lock_accum ~n:64 ~iters:3);
  ]

(* The level names are {!Cli.level_names}; the transformation recipes
   they select are compiler-side and so stay here. *)
let levels : (string * Transform.opts) list =
  List.map
    (fun name ->
      ( name,
        match name with
        | "base" -> Transform.base
        | "aggr" -> Transform.level_aggregate
        | "cons" -> Transform.level_cons_elim
        | "merge" -> Transform.level_sync_merge
        | "push" -> Transform.level_push
        | _ -> assert false ))
    Cli.level_names

let run_race prog ~nprocs =
  let source = Race.check prog ~nprocs in
  (* A race in the source shows up at every level; only scan the
     transformed outputs when the source is clean. *)
  if source <> [] then source
  else
    List.concat_map
      (fun (_, opts) ->
        let transformed, _ = Transform.transform prog ~nprocs ~opts in
        Race.check transformed ~nprocs)
      levels

let run_verify prog ~nprocs level_names =
  List.concat_map
    (fun name ->
      let opts = List.assoc name levels in
      let transformed, _ = Transform.transform prog ~nprocs ~opts in
      Verify.run ~orig:prog ~transformed ~nprocs)
    level_names

let run_diff prog ~cfg ~nprocs level_names =
  if nprocs = 1 then []
    (* single-processor runs have no consistency traffic to check *)
  else
    List.concat_map
      (fun lname ->
        let opts = List.assoc lname levels in
        let r = Differential.run ~opts ~cfg prog ~nprocs in
        Array.iteri
          (fun p (s : Differential.proc_stat) ->
            Format.printf
              "  %-10s %-5s p%d: %d static pages, %d dynamic, %d covered@."
              prog.Ir.pname lname p s.Differential.static_pages
              s.Differential.dynamic_pages
              s.Differential.covered_pages)
          r.Differential.per_proc;
        r.Differential.diags)
      level_names

(* {1 Plan mode: static sharing-pattern classification of the shipped
      applications} *)


(* Grade the plan against a traced run of the adaptive backend: compare
   the static decisions with the final dynamic classification and with
   every Proto_switch the run performed. *)
let grade_plan ~cfg ~nprocs ~level (plan : Plan.t)
    (spec : App_models.spec) =
  match (Registry.find spec.App_models.name, Cli.find_level level) with
  | None, _ | _, None -> []
  | Some m, Some l -> (
      let module W = (val m : Dsm_apps.Workload.S) in
      match List.assoc_opt "small" W.sizes with
      | None -> []
      | Some size ->
      let cfg =
        match Config.backend_of_string "adaptive" with
        | Some b -> { cfg with Config.backend = b }
        | None -> cfg
      in
      let cfg = Config.with_procs cfg nprocs in
      let sink = Sink.create ~nprocs () in
      let classes = ref [] in
      ignore
        (W.tmk ~trace:sink
           ~inspect:(fun sys -> classes := Dsm_tmk.Tmk.adapt_classes sys)
           cfg ~size ~behavior:W.default_behavior ~level:l ~async:true);
      let g =
        Differential.grade ~plan ~classes:!classes ~events:(Sink.events sink)
      in
      let pct a b = if b = 0 then 100.0 else 100.0 *. float a /. float b in
      Format.printf
        "  %-8s %-5s p%d: exact %d/%d agree (%.1f%%), inexact %d/%d \
         (%.1f%%), %d mispredictions@."
        spec.App_models.name level nprocs g.Differential.exact_agreed
        g.Differential.exact_pages
        (pct g.Differential.exact_agreed g.Differential.exact_pages)
        g.Differential.inexact_agreed g.Differential.inexact_pages
        (pct g.Differential.inexact_agreed g.Differential.inexact_pages)
        (List.length g.Differential.mispredictions);
      List.iter
        (fun (c : Differential.class_stat) ->
          Format.printf "           %-6s %-7s %d/%d@." c.Differential.cs_proto
            (Plan.confidence_name c.Differential.cs_confidence)
            c.Differential.cs_agreed c.Differential.cs_pages)
        g.Differential.by_class;
      List.map
        (fun (mp : Differential.misprediction) ->
          let got =
            match mp.Differential.mp_got with
            | Some (proto, owner) -> Printf.sprintf "%s/%d" proto owner
            | None -> "lrc (never classified)"
          in
          let expected, eo = mp.Differential.mp_expected in
          Diag.make Diag.Error ~program:spec.App_models.name
            (Diag.Structure
               {
                 reason =
                   Printf.sprintf
                     "misprediction: page %d (%s) predicted %s/%d exact, \
                      run ended %s%s"
                     mp.Differential.mp_page mp.Differential.mp_array
                     expected eo got
                     (if mp.Differential.mp_switched then
                        " (switched away mid-run)"
                      else "");
               }))
        g.Differential.mispredictions)

let run_plan ~cfg ~nprocs ~level ~plan_out ~single ~grade
    (spec : App_models.spec) =
  let page_size = cfg.Config.page_size in
  let model =
    spec.App_models.build ~nprocs ~page_size ~size:App_models.Small
  in
  match
    Classify.plan ~program:spec.App_models.name ~level ~nprocs model
  with
  | exception Invalid_argument e ->
      [
        Diag.make Diag.Error ~program:spec.App_models.name
          (Diag.Structure { reason = "plan generation failed: " ^ e });
      ]
  | plan ->
      let n_exact =
        List.fold_left
          (fun acc (d : Plan.directive) ->
            acc + (d.Plan.hi_page - d.Plan.lo_page + 1))
          0
          (Plan.exact_directives plan)
      in
      Format.printf
        "  %-8s %-5s p%d: %d directives, %d pages (%d exact)@."
        spec.App_models.name level nprocs
        (List.length plan.Plan.directives)
        (Plan.n_pages plan) n_exact;
      (match plan_out with
      | None -> ()
      | Some path ->
          let file =
            if single then path
            else begin
              (try Sys.mkdir path 0o755 with Sys_error _ -> ());
              Filename.concat path
                (Printf.sprintf "%s-%s-p%d.plan.jsonl" spec.App_models.name
                   level nprocs)
            end
          in
          Plan.save file plan;
          Format.printf "    written to %s@." file);
      if grade && level = "base" then grade_plan ~cfg ~nprocs ~level plan spec
      else []

let main prog_arg app_arg procs_arg mode level_arg plan_out grade common
    strict =
  let ( let* ) r f = match r with Error e -> `Error (false, e) | Ok v -> f v in
  let* prog_names =
    Cli.parse_name_list ~known:(List.map fst programs) ~what:"program" prog_arg
  in
  let* app_names =
    Cli.parse_name_list ~known:App_models.names ~what:"app" app_arg
  in
  let* level_names =
    Cli.parse_name_list ~known:Cli.level_names ~what:"level" level_arg
  in
  let* procs = Cli.parse_procs procs_arg in
  let* cfg = Cli.config common in
  let* modes =
    match mode with
    | "all" -> Ok [ "race"; "verify"; "diff" ]
    | ("race" | "verify" | "diff" | "plan") as m -> Ok [ m ]
    | m -> Error ("unknown mode: " ^ m ^ " (race, verify, diff, plan or all)")
  in
  (* The static plan models the base program, so only the Base run can
     grade it: the default level list grades that run alone, and a
     --level naming any other level is a usage error. *)
  let* () =
    if
      grade && List.mem "plan" modes && level_arg <> "all"
      && level_names <> [ "base" ]
    then
      Error
        (Dsm_net.Plan.field_error ~field:"--level" ~value:level_arg
           ~range:"{base} with --grade")
    else Ok ()
  in
  let plan_diags =
    if not (List.mem "plan" modes) then []
    else begin
      let single =
        List.length app_names = 1
        && List.length procs = 1
        && List.length level_names = 1
      in
      List.concat_map
        (fun name ->
          match App_models.find name with
          | None -> []
          | Some spec ->
              List.concat_map
                (fun nprocs ->
                  List.concat_map
                    (fun level ->
                      run_plan ~cfg ~nprocs ~level ~plan_out ~single ~grade
                        spec)
                    level_names)
                procs)
        app_names
    end
  in
  let static_modes = List.filter (fun m -> m <> "plan") modes in
  let diags =
    plan_diags
    @ List.concat_map
        (fun pname ->
          let prog = List.assoc pname programs in
          List.concat_map
            (fun nprocs ->
              List.concat_map
                (function
                  | "race" -> run_race prog ~nprocs
                  | "verify" -> run_verify prog ~nprocs level_names
                  | "diff" -> run_diff prog ~cfg ~nprocs level_names
                  | _ -> assert false)
                static_modes)
            procs)
        prog_names
  in
  Format.printf "@[<v>%a@]@." Diag.pp_report diags;
  let code = Diag.exit_code ~strict diags in
  if code = 0 then `Ok () else exit code

let cmd =
  let prog =
    Arg.(
      value & opt string "all"
      & info [ "program"; "P" ] ~docv:"NAME"
          ~doc:
            "Comma-separated IR programs to lint, or $(b,all): jacobi, \
             transpose, redblack, masked, lock_accum.")
  in
  let mode =
    Arg.(
      value & opt string "all"
      & info [ "mode"; "m" ] ~doc:"Analysis: race, verify, diff, plan or all.")
  in
  let app_arg =
    Arg.(
      value & opt string "all"
      & info [ "app"; "a" ] ~docv:"NAME"
          ~doc:
            "Comma-separated benchmark applications for $(b,--mode plan), \
             or $(b,all): jacobi, fft3d, shallow, is, gauss, mgs.")
  in
  let plan_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan-out" ] ~docv:"PATH"
          ~doc:
            "Write the generated protocol-placement plan(s). A single \
             app/level/procs combination writes $(docv) itself; multiple \
             combinations treat $(docv) as a directory of \
             $(i,app-level-pN.plan.jsonl) files.")
  in
  let grade =
    Arg.(
      value & flag
      & info [ "grade" ]
          ~doc:
            "With $(b,--mode plan): run the traced adaptive backend at \
             the Base level and grade the static predictions against the \
             dynamic classification; a switch away from an \
             exact-confidence decision is an error. The static plan \
             models the base program, so a $(b,--level) other than \
             $(b,base) is a usage error.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Exit non-zero on warnings as well.")
  in
  let doc = "static data-race detection and transformation verification" in
  Cmd.v
    (Cmd.info "dsm_lint" ~doc)
    Term.(
      ret
        (const main $ prog $ app_arg $ Cli.procs_list_t $ mode
       $ Cli.level_t ~default:"all" $ plan_out $ grade $ Cli.term $ strict))

let () = exit (Cmd.eval cmd)
