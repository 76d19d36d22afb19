(* Static protocol-placement plans: the compile-time classifier
   ({!Dsm_lint.Classify} over the {!Dsm_lint.App_models}), the plan file
   format ({!Dsm_tmk.Proto_plan}), run-time seeding ([Tmk.make ?plan])
   and the static-vs-dynamic grading ({!Dsm_lint.Differential.grade}).

   The load-bearing suites:
   - agreement: for every shipped application at 1/2/4/8 processors the
     static plan's exact-confidence decisions match what the traced
     adaptive backend converged to, with zero mispredictions (no
     [Proto_switch] ever moved a page off an exact decision);
   - seeding: a plan-seeded adaptive run is checker-clean and ends with
     shared memory bit-identical to the unseeded run's. *)

module Config = Dsm_sim.Config
module Plan = Dsm_tmk.Proto_plan
module Classify = Dsm_lint.Classify
module App_models = Dsm_lint.App_models
module Differential = Dsm_lint.Differential
module Pset = Dsm_util.Pset
module A = Dsm_apps.App_common
module Cli = Dsm_harness.Cli

let adaptive_cfg nprocs =
  let cfg = Config.with_procs Config.default nprocs in
  match Config.backend_of_string "adaptive" with
  | Some b -> { cfg with Config.backend = b }
  | None -> Alcotest.fail "no adaptive backend"

let build_plan ~nprocs name =
  let spec =
    match App_models.find name with
    | Some s -> s
    | None -> Alcotest.fail ("no model for " ^ name)
  in
  let model =
    spec.App_models.build ~nprocs ~page_size:Config.default.Config.page_size
      ~size:App_models.Small
  in
  Classify.plan ~program:name ~level:"base" ~nprocs model

let run_traced ?plan ~nprocs name =
  let m =
    match Dsm_apps.Registry.find name with
    | Some m -> m
    | None -> Alcotest.fail ("no app " ^ name)
  in
  let module W = (val m : Dsm_apps.Workload.S) in
  let size =
    match List.assoc_opt "small" W.sizes with
    | Some s -> s
    | None -> Alcotest.fail ("no small size for " ^ name)
  in
  let l =
    match Cli.find_level "base" with
    | Some l -> l
    | None -> Alcotest.fail "no base level"
  in
  let sink = Dsm_trace.Sink.create ~nprocs () in
  let classes = ref [] in
  let r =
    W.tmk ~trace:sink ~digest:true ?plan
      ~inspect:(fun sys -> classes := Dsm_tmk.Tmk.adapt_classes sys)
      (adaptive_cfg nprocs) ~size ~behavior:W.default_behavior ~level:l
      ~async:true
  in
  (r, !classes, sink)

(* {1 Plan file round trip and validation} *)

let sample_plan () =
  {
    Plan.program = "jacobi";
    nprocs = 4;
    page_size = 4096;
    level = "base";
    directives =
      [
        {
          Plan.array = "b";
          lo_page = 0;
          hi_page = 3;
          proto = Plan.Inval;
          owner = 0;
          confidence = Plan.Exact;
          reason = "steady";
          est_lrc = 2.0;
          est_hlrc = 1.5;
          est_inval = 1.0;
        };
        {
          Plan.array = "b";
          lo_page = 4;
          hi_page = 4;
          proto = Plan.Hlrc;
          owner = 3;
          confidence = Plan.Inexact;
          reason = "run-edge";
          est_lrc = 4.0;
          est_hlrc = 2.0;
          est_inval = 6.0;
        };
      ];
  }

let test_plan_roundtrip () =
  let plan = sample_plan () in
  let file = Filename.temp_file "plan" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Plan.save file plan;
      match Plan.load file with
      | Error e -> Alcotest.fail ("load failed: " ^ e)
      | Ok plan' ->
          Alcotest.(check bool) "round trip" true (plan = plan'))

let test_plan_validation () =
  let expect_error what p =
    match Plan.validate p with
    | Ok _ -> Alcotest.fail (what ^ ": expected a validation error")
    | Error e ->
        (* every message follows Dsm_net.Plan.field_error's
           "field: value outside accepted range ..." shape *)
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool)
          (what ^ " error names the range: " ^ e)
          true
          (contains e "outside accepted range")
  in
  let p = sample_plan () in
  expect_error "owner out of range"
    {
      p with
      Plan.directives =
        [ { (List.hd p.Plan.directives) with Plan.owner = 9 } ];
    };
  expect_error "inverted pages"
    {
      p with
      Plan.directives =
        [ { (List.hd p.Plan.directives) with Plan.lo_page = 7 } ];
    };
  expect_error "lrc with owner"
    {
      p with
      Plan.directives =
        [ { (List.hd p.Plan.directives) with Plan.proto = Plan.Lrc } ];
    };
  expect_error "bad nprocs" { p with Plan.nprocs = 0 }

(* The sample plan as the lines of its file. *)
let sample_lines () =
  let file = Filename.temp_file "plan" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Plan.save file (sample_plan ());
      In_channel.with_open_text file In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> String.trim l <> ""))

(* [nprocs], [page_size] and [lo_page] are integers: a fraction is an
   error naming the field, not a truncated plan. *)
let test_plan_rejects_non_integers () =
  let lines = sample_lines () in
  List.iter
    (fun (field, value) ->
      let subst line =
        let key = Printf.sprintf "\"%s\":" field in
        match String.split_on_char ',' line with
        | parts when List.exists (String.starts_with ~prefix:key) parts ->
            String.concat ","
              (List.map
                 (fun p ->
                   if String.starts_with ~prefix:key p then key ^ value else p)
                 parts)
        | _ -> line
      in
      match Plan.of_lines (List.map subst lines) with
      | Ok _ -> Alcotest.failf "%s = %s must be rejected" field value
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%s = %s: %S names the field" field value e)
            true
            (Test_trace.contains ~sub:(Printf.sprintf "%S" field) e))
    [ ("nprocs", "4.5"); ("page_size", "4096.25"); ("lo_page", "0.5") ]

(* [of_lines] answers [Ok] or [Error] for any input: random edits of one
   line of a valid plan, or a line dropped or repeated. *)
let prop_of_lines_mutations =
  let lines = sample_lines () in
  let n = List.length lines in
  let gen =
    QCheck.Gen.(
      int_bound (n - 1) >>= fun k ->
      let nth = List.nth lines k in
      oneof
        [
          map
            (fun l -> List.mapi (fun i x -> if i = k then l else x) lines)
            (Test_trace.mutate nth);
          return (List.filteri (fun i _ -> i <> k) lines);
          return (lines @ [ nth ]);
        ])
  in
  QCheck.Test.make ~count:2000 ~name:"fuzz: of_lines answers mutated plans"
    (QCheck.make ~print:(fun ls -> String.concat "\n" ls) gen)
    (fun ls -> match Plan.of_lines ls with Ok _ | Error _ -> true)

(* {1 Classifier properties} *)

let acc_of (readers, writers, exact) =
  let a = Classify.empty_acc () in
  a.Classify.readers <- Pset.of_list readers;
  a.Classify.writers <- Pset.of_list writers;
  a.Classify.exact <- exact;
  a

let gen_acc =
  QCheck.Gen.(
    let procs = list_size (int_bound 4) (int_bound 7) in
    map3 (fun r w e -> (r, w, e)) procs procs bool)

let arb_epochs =
  QCheck.make
    ~print:(fun eps ->
      String.concat ";"
        (List.map
           (fun (r, w, e) ->
             Printf.sprintf "r=%s w=%s %s"
               (String.concat "," (List.map string_of_int r))
               (String.concat "," (List.map string_of_int w))
               (if e then "exact" else "inexact"))
           eps))
    QCheck.Gen.(list_size (int_range 1 6) gen_acc)

(* The online rule, restated independently of the implementation. *)
let taxonomy_oracle a =
  let users = Pset.union a.Classify.readers a.Classify.writers in
  match Pset.cardinal a.Classify.writers with
  | 0 -> None
  | 1 ->
      let w = Pset.min_elt a.Classify.writers in
      if Pset.equal users a.Classify.writers then Some (Plan.Inval, w)
      else Some (Plan.Hlrc, w)
  | _ -> Some (Plan.Lrc, -1)

let prop_taxonomy =
  QCheck.Test.make ~count:500 ~name:"taxonomy matches the online rule"
    (QCheck.make gen_acc)
    (fun spec ->
      let a = acc_of spec in
      Classify.taxonomy a = taxonomy_oracle a)

(* An exact classification may not depend on where in the cycle the run
   happens to start: rotating the epoch sequence (with no init accesses)
   preserves the decision and its exactness. *)
let prop_rotation =
  QCheck.Test.make ~count:500 ~name:"exact decisions are rotation-invariant"
    arb_epochs
    (fun specs ->
      let epochs () = Array.of_list (List.map acc_of specs) in
      let d0 = Classify.classify_page ~window:2 ~init:None (epochs ()) in
      match d0 with
      | _, Plan.Inexact, _ -> QCheck.assume_fail ()
      | dec, Plan.Exact, _ ->
          let n = List.length specs in
          List.for_all
            (fun k ->
              let rot = Array.init n (fun i -> (epochs ()).((i + k) mod n)) in
              match Classify.classify_page ~window:2 ~init:None rot with
              | dec', Plan.Exact, _ -> dec = dec'
              | _ -> false)
            (List.init n Fun.id))

(* A single writer with no other users in every epoch is the private
   pattern: invalidate, owned by the writer, exact. *)
let prop_private =
  QCheck.Test.make ~count:200 ~name:"uniform private pages classify inval"
    QCheck.(pair (int_bound 7) (int_range 1 6))
    (fun (w, n) ->
      let epochs =
        Array.init n (fun _ -> acc_of ([ w ], [ w ], true))
      in
      Classify.classify_page ~window:2 ~init:None epochs
      = (Some (Plan.Inval, w), Plan.Exact, "steady"))

(* {1 Static plans vs the adaptive backend} *)

let app_names = App_models.names

let test_agreement () =
  List.iter
    (fun name ->
      List.iter
        (fun nprocs ->
          let plan = build_plan ~nprocs name in
          (match Plan.validate plan with
          | Ok _ -> ()
          | Error e ->
              Alcotest.fail (Printf.sprintf "%s p%d: %s" name nprocs e));
          let _, classes, sink = run_traced ~nprocs name in
          let g =
            Differential.grade ~plan ~classes
              ~events:(Dsm_trace.Sink.events sink)
          in
          Alcotest.(check (list reject))
            (Printf.sprintf "%s p%d: no mispredictions" name nprocs)
            []
            (List.map
               (fun (mp : Differential.misprediction) ->
                 Printf.sprintf "page %d" mp.Differential.mp_page)
               g.Differential.mispredictions);
          Alcotest.(check int)
            (Printf.sprintf "%s p%d: every exact page agrees" name nprocs)
            g.Differential.exact_pages g.Differential.exact_agreed)
        [ 1; 2; 4; 8 ])
    app_names

(* Seeding replaces the warm-up, not the answer: a seeded adaptive run
   must end with bit-identical shared memory, pass the protocol checker
   (including the Plan_applied seeding rule) and converge to the same
   final classification. *)
let test_seeding () =
  List.iter
    (fun name ->
      let nprocs = 4 in
      let plan = build_plan ~nprocs name in
      let unseeded, unseeded_classes, _ = run_traced ~nprocs name in
      let seeded, seeded_classes, sink = run_traced ~plan ~nprocs name in
      Alcotest.(check string)
        (name ^ ": seeded digest identical")
        unseeded.A.digest seeded.A.digest;
      Alcotest.(check (list reject))
        (name ^ ": seeded run checker-clean")
        []
        (List.map
           (Format.asprintf "%a" Dsm_trace.Check.pp_violation)
           (Dsm_trace.Check.run_sink sink));
      Alcotest.(check bool)
        (name ^ ": same converged classification")
        true
        (unseeded_classes = seeded_classes))
    app_names

(* Seeding must save warm-up switches where the plan has exact
   directives (that is the point of the whole exercise). *)
let count_switches sink =
  List.length
    (List.filter
       (fun (ev : Dsm_trace.Event.t) ->
         match ev.Dsm_trace.Event.kind with
         | Dsm_trace.Event.Proto_switch _ -> true
         | _ -> false)
       (Dsm_trace.Sink.events sink))

let test_seeding_saves_switches () =
  List.iter
    (fun name ->
      let nprocs = 4 in
      let plan = build_plan ~nprocs name in
      let _, _, unseeded = run_traced ~nprocs name in
      let _, _, seeded = run_traced ~plan ~nprocs name in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d seeded < %d unseeded switches" name
           (count_switches seeded) (count_switches unseeded))
        true
        (count_switches seeded < count_switches unseeded))
    [ "jacobi"; "gauss"; "shallow" ]

let tests =
  [
    Alcotest.test_case "plan file round trip" `Quick test_plan_roundtrip;
    Alcotest.test_case "plan validation errors" `Quick test_plan_validation;
    QCheck_alcotest.to_alcotest prop_taxonomy;
    QCheck_alcotest.to_alcotest prop_rotation;
    QCheck_alcotest.to_alcotest prop_private;
    Alcotest.test_case "static plans agree with adaptive (6 apps x 1/2/4/8)"
      `Slow test_agreement;
    Alcotest.test_case "seeded runs digest-identical and checker-clean"
      `Slow test_seeding;
    Alcotest.test_case "seeding saves warm-up switches" `Slow
      test_seeding_saves_switches;
    Alcotest.test_case "plan: non-integers name the field" `Quick
      test_plan_rejects_non_integers;
    QCheck_alcotest.to_alcotest prop_of_lines_mutations;
  ]
