(* The performance infrastructure added with the profiling PR: the
   self-profiler's disabled/enabled semantics and non-interference with
   simulated results, the indexed write-notice log, and the bench
   trajectory writer/parser/regression gate. *)

module Prof = Dsm_prof.Prof
module Ilog = Dsm_tmk.Ilog
module Pset = Dsm_util.Pset
module Bench_log = Dsm_harness.Bench_log
module Tmk = Dsm_tmk.Tmk
module Shm = Dsm_tmk.Shm
module Config = Dsm_sim.Config

(* {1 Prof} *)

let test_prof_disabled_noop () =
  Prof.reset ();
  Prof.enter Prof.Protocol;
  Prof.tick Prof.Vc;
  Prof.exit Prof.Protocol;
  let rows, total = Prof.report () in
  Alcotest.(check int) "no rows recorded while disabled" 0 (List.length rows);
  Alcotest.(check (float 0.0)) "no total while disabled" 0.0 total

let test_prof_spans_and_ticks () =
  Prof.enable ();
  Prof.enter Prof.Protocol;
  Prof.enter Prof.Diff_create;
  ignore (Sys.opaque_identity (Array.init 1000 Fun.id));
  Prof.exit Prof.Diff_create;
  Prof.exit Prof.Protocol;
  for _ = 1 to 5 do
    Prof.tick Prof.Vc
  done;
  Prof.disable ();
  let rows, total = Prof.report () in
  let row name = List.find_opt (fun (r : Prof.row) -> r.name = name) rows in
  (match row "protocol" with
  | Some r -> Alcotest.(check int) "protocol spans" 1 r.Prof.calls
  | None -> Alcotest.fail "protocol row missing");
  (match row "diff-create" with
  | Some r -> Alcotest.(check int) "nested span counted" 1 r.Prof.calls
  | None -> Alcotest.fail "diff-create row missing");
  (match row "vc" with
  | Some r -> Alcotest.(check int) "ticks counted" 5 r.Prof.ops
  | None -> Alcotest.fail "vc row missing");
  let self_sum = List.fold_left (fun a (r : Prof.row) -> a +. r.self_s) 0.0 rows in
  Alcotest.(check bool) "self times sum to <= total" true
    (self_sum <= total +. 1e-9)

let test_prof_exception_unwind () =
  Prof.enable ();
  (try Prof.span Prof.Sync (fun () -> failwith "boom") with Failure _ -> ());
  Prof.disable ();
  let rows, _ = Prof.report () in
  match List.find_opt (fun (r : Prof.row) -> r.name = "sync") rows with
  | Some r -> Alcotest.(check int) "span closed on unwind" 1 r.Prof.calls
  | None -> Alcotest.fail "sync row missing"

(* Profiling must not perturb the simulation: the same program yields the
   same virtual elapsed time with the profiler on and off. *)
let run_small_sim () =
  let sys = Tmk.make { Config.default with nprocs = 4; page_size = 256 } in
  let a = Tmk.Alloc.array sys "a" ~dims:[ 64 ] in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      Shm.F64_1.set t a p (float_of_int (p + 1));
      Tmk.barrier t;
      ignore (Shm.F64_1.get t a ((p + 1) mod 4)));
  Tmk.elapsed sys

let test_prof_does_not_perturb_simulation () =
  let off = run_small_sim () in
  Prof.enable ();
  let on = run_small_sim () in
  Prof.disable ();
  Alcotest.(check (float 0.0)) "virtual time identical under profiling" off on

(* The stack sampler of [dsm_run --prof] is a pure observer too, and its
   report says how to read its self column. *)
let test_sampler_does_not_perturb_simulation () =
  let off = run_small_sim () in
  Dsm_prof.Sampler.start ();
  let on = run_small_sim () in
  Dsm_prof.Sampler.stop ();
  Alcotest.(check (float 0.0)) "virtual time identical under sampling" off on;
  let report = Format.asprintf "%a" Dsm_prof.Sampler.pp () in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length report
      && (String.sub report i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "header names the poll-point bias" true
    (contains "poll points")

(* A nameless frame directly under the handler is the interrupted
   function: the sample goes to a row of its own above its caller, not to
   the caller's self time. *)
let test_sampler_attribution () =
  let h = "Dsm_prof__Sampler.handler" in
  let check msg expected stack =
    Alcotest.(check (list string))
      msg expected
      (Dsm_prof.Sampler.attribute stack)
  in
  check "interrupted callee"
    [ "? (in a callee of Gauss.tmk.(fun))"; "Gauss.tmk.(fun)"; "Tmk.run.(fun)" ]
    [ h; "?"; "Gauss.tmk.(fun)"; "Tmk.run.(fun)" ];
  check "nameless frames above the handler go too"
    [ "? (in a callee of App_common.memo)"; "App_common.memo" ]
    [ "?"; h; "Dsm_prof__Sampler.names"; "?"; "?"; "App_common.memo" ];
  check "named interrupted frame keeps its self time"
    [ "Shm.F64_2.axpy_col"; "Gauss.tmk.(fun)" ]
    [ h; "Shm.F64_2.axpy_col"; "Gauss.tmk.(fun)" ];
  check "nameless frames deeper down stay" [ "A.f"; "?"; "B.g" ]
    [ h; "A.f"; "?"; "B.g" ];
  check "nothing named under the handler" [ "?" ] [ h; "?" ];
  check "handler only" [] [ h ]

(* The header reports the interval the samples really had, not the one
   the timer was asked for. *)
let test_sampler_header () =
  let check msg expected samples cpu_s =
    Alcotest.(check string)
      msg expected
      (Dsm_prof.Sampler.header ~samples ~cpu_s)
  in
  check "measured interval"
    "67 stack samples in 0.26 s of CPU: one per 3.9 ms (SIGPROF, asked \
     every 1 ms)."
    67 0.26;
  check "one per requested tick"
    "1000 stack samples in 1.00 s of CPU: one per 1.0 ms (SIGPROF, asked \
     every 1 ms)."
    1000 1.0;
  check "no samples"
    "0 stack samples in 0.00 s of CPU: none taken (SIGPROF, asked every \
     1 ms)."
    0 0.0

(* {1 Ilog} *)

let test_ilog_count_since () =
  let l = Ilog.create () in
  Ilog.add l ~seq:1 [ 10; 11 ];
  Ilog.add l ~seq:2 [];
  Ilog.add l ~seq:3 [ 12 ];
  Alcotest.(check int) "hi" 3 (Ilog.hi l);
  Alcotest.(check int) "all" 3 (Ilog.count_since l 0);
  Alcotest.(check int) "since 1" 1 (Ilog.count_since l 1);
  Alcotest.(check int) "since hi" 0 (Ilog.count_since l 3);
  Alcotest.(check int) "clamped above" 0 (Ilog.count_since l 99);
  Alcotest.(check int) "clamped below" 3 (Ilog.count_since l (-5))

let test_ilog_dense_seqs_only () =
  let l = Ilog.create () in
  Ilog.add l ~seq:1 [ 1 ];
  Alcotest.check_raises "gap rejected"
    (Invalid_argument "Ilog.add: non-consecutive seq") (fun () ->
      Ilog.add l ~seq:3 [ 2 ]);
  Alcotest.check_raises "extents must be parallel to the pages"
    (Invalid_argument "Ilog.add: extents not parallel to pages") (fun () ->
      Ilog.add l ~seq:2 ~extents:[| None |] [ 2; 3 ])

let test_ilog_iter_desc () =
  let l = Ilog.create () in
  for s = 1 to 5 do
    Ilog.add l ~seq:s [ s * 100 ]
  done;
  let seen = ref [] in
  Ilog.iter_desc l ~lo:0 ~hi:5 (fun s pages _ -> seen := (s, pages) :: !seen);
  Alcotest.(check (list int)) "newest first over the whole window"
    [ 5; 4; 3; 2; 1 ]
    (List.rev_map fst !seen);
  seen := [];
  Ilog.iter_desc l ~lo:2 ~hi:4 (fun s _ _ -> seen := (s, [||]) :: !seen);
  Alcotest.(check (list int)) "window excludes lo, includes hi" [ 4; 3 ]
    (List.rev_map fst !seen)

(* The newest interval in a window [lo < seq <= upto] listing a page:
   [newest_touch ~upto] above [lo], as the broadcast planner asks it. *)
let test_ilog_newest_touch () =
  let l = Ilog.create () in
  Ilog.add l ~seq:1 [ 7 ];
  Ilog.add l ~seq:2 [ 8 ];
  Ilog.add l ~seq:3 [ 7; 9 ];
  let in_window ~lo ~upto page =
    let s = Ilog.newest_touch l page ~upto in
    if s > lo then s else 0
  in
  Alcotest.(check int) "newest hit" 3 (in_window ~lo:0 ~upto:3 7);
  Alcotest.(check int) "bounded by upto" 1 (in_window ~lo:0 ~upto:2 7);
  Alcotest.(check int) "lo excluded" 0 (in_window ~lo:1 ~upto:2 7);
  Alcotest.(check int) "absent page" 0 (in_window ~lo:0 ~upto:3 99)

(* Model: the page index agrees with a linear scan of the interval lists,
   for random logs with repeated pages inside an interval, empty
   intervals, and [upto] below the first seq or above [hi]; the shared
   writer rows visit exactly the logs that listed the page, each once.
   Intervals carry extents (the object slots a notice covers, [None] for a
   page outside any object region): [iter_desc] hands back each page's
   extent, and the O(1) window counts equal a walk of every window. *)
let ilog_model_gen =
  QCheck.Gen.(
    pair
      (list_size (int_range 1 3)
         (list_size (int_range 0 12)
            (list_size (int_range 0 4)
               (pair (int_range 0 9)
                  (opt (list_size (int_range 0 3) (int_range 0 7)))))))
      (pair (int_range 0 9) (int_range (-2) 16)))

let test_ilog_index_model =
  QCheck.Test.make ~count:1000 ~name:"ilog: page index matches a linear scan"
    (QCheck.make ilog_model_gen) (fun (model, (page, upto)) ->
      let logs = List.map (List.map (List.map fst)) model in
      let extent_of = Option.map Pset.of_list in
      let w = Ilog.writers () in
      let ls =
        Array.of_list
          (List.mapi
             (fun q intervals ->
               let l = Ilog.create ~owner:q ~writers:w () in
               List.iteri
                 (fun i notices ->
                   let pages = List.map fst notices in
                   if List.for_all (fun (_, e) -> e = None) notices then
                     Ilog.add l ~seq:(i + 1) pages
                   else
                     Ilog.add l ~seq:(i + 1)
                       ~extents:
                         (Array.of_list
                            (List.map (fun (_, e) -> extent_of e) notices))
                       pages)
                 intervals;
               l)
             model)
      in
      let scan intervals =
        let best = ref 0 in
        List.iteri
          (fun i pages ->
            if i + 1 <= upto && List.mem page pages then best := i + 1)
          intervals;
        !best
      in
      let visited = ref [] in
      Ilog.iter_newest w ls page ~upto:(fun _ -> upto) (fun q s ->
          visited := (q, s) :: !visited);
      let expected =
        List.concat
          (List.mapi
             (fun q intervals ->
               if List.exists (List.mem page) intervals then
                 [ (q, scan intervals) ]
               else [])
             logs)
      in
      let extents_ok l intervals =
        let n = List.length intervals in
        let seen = ref [] in
        Ilog.iter_desc l ~lo:0 ~hi:n (fun _ pages extents ->
            seen :=
              List.init (Array.length pages) (fun i ->
                  (pages.(i), Ilog.extent extents i))
              :: !seen);
        let walk f ~lo ~hi =
          List.fold_left ( + ) 0
            (List.mapi
               (fun i notices -> if i + 1 > lo && i + 1 <= hi then f notices else 0)
               intervals)
        in
        let windows_ok = ref true in
        for lo = -1 to n + 1 do
          for hi = lo to n + 1 do
            if
              Ilog.count_window l ~lo ~hi <> walk List.length ~lo ~hi
              || Ilog.count_obj_window l ~lo ~hi
                 <> walk
                      (fun ns -> List.length (List.filter (fun (_, e) -> e <> None) ns))
                      ~lo ~hi
            then windows_ok := false
          done
        done;
        !windows_ok
        && !seen
           = List.map (List.map (fun (pg, e) -> (pg, extent_of e))) intervals
      in
      List.for_all2
        (fun l intervals -> Ilog.newest_touch l page ~upto = scan intervals)
        (Array.to_list ls) logs
      && List.rev !visited = expected
      && List.for_all2 extents_ok (Array.to_list ls) model)

let test_ilog_grow () =
  let l = Ilog.create () in
  (* from seq 10 on, every third interval's second page carries an
     extent: the extent arrays start mid-log and grow with it *)
  let extent s = if s >= 10 && s mod 3 = 0 then Some (Pset.singleton s) else None in
  for s = 1 to 300 do
    Ilog.add l ~seq:s ~extents:[| None; extent s |] [ s; s + 1 ]
  done;
  Alcotest.(check int) "grown past initial capacity" 300 (Ilog.hi l);
  Alcotest.(check int) "counts survive growth" 600 (Ilog.count_since l 0);
  Alcotest.(check int) "window count" 20 (Ilog.count_since l 290);
  Alcotest.(check int) "extents counted before the first" 0
    (Ilog.count_obj_window l ~lo:0 ~hi:9);
  Alcotest.(check int) "extents survive growth" 97
    (Ilog.count_obj_window l ~lo:0 ~hi:300);
  Ilog.iter_desc l ~lo:298 ~hi:300 (fun s _ extents ->
      Alcotest.(check bool)
        (Printf.sprintf "extent of seq %d" s)
        true
        (Ilog.extent extents 1 = extent s))

(* {1 Bench_log} *)

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let mk_log names =
  let log = Bench_log.create ~pr:99 ~label:"test" ~quick:true in
  List.iter
    (fun (name, text) ->
      ignore
        (Bench_log.measure log ~name (fun ppf ->
             Format.fprintf ppf "%s@." text)))
    names;
  log

let test_bench_log_roundtrip () =
  let log = mk_log [ ("alpha", "one"); ("beta", "two") ] in
  Bench_log.set_prof_invariant log true;
  let path = Filename.temp_file "bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bench_log.write log ~path;
      let loaded = Bench_log.load ~path in
      Alcotest.(check (list string))
        "names survive the roundtrip" [ "alpha"; "beta" ]
        (List.map (fun e -> e.Bench_log.e_name) loaded);
      List.iter2
        (fun (a : Bench_log.entry) (b : Bench_log.entry) ->
          Alcotest.(check string) "digest preserved" a.e_digest b.e_digest)
        (Bench_log.entries log) loaded)

(* Every baseline is derived from the current log's own entries, so no
   check depends on how long two separate runs took. The measured
   formatter spins for a millisecond of CPU time, so the recorded wall is
   never zero and halving it is a real slowdown. *)
let test_bench_log_gate () =
  let current = Bench_log.create ~pr:99 ~label:"test" ~quick:true in
  ignore
    (Bench_log.measure current ~name:"alpha" (fun ppf ->
         let t0 = Sys.time () in
         while Sys.time () -. t0 < 0.001 do
           ()
         done;
         Format.fprintf ppf "one@."));
  let own = Bench_log.entries current in
  let gate baseline =
    Bench_log.compare_against null_ppf ~baseline ~current ~tolerance:0.2
  in
  Alcotest.(check bool) "equal walls and digests pass" true (gate own);
  Alcotest.(check bool) "a baseline twice as fast fails on the total" false
    (gate
       (List.map
          (fun (e : Bench_log.entry) -> { e with e_wall_ms = e.e_wall_ms /. 2.0 })
          own));
  Alcotest.(check bool) "changed simulated output fails" false
    (gate
       (List.map
          (fun (e : Bench_log.entry) -> { e with e_digest = "0" ^ e.e_digest })
          own))

let test_bench_log_min_merge () =
  let a = mk_log [ ("alpha", "one") ] and b = mk_log [ ("alpha", "one") ] in
  let merged = Bench_log.min_merge a b in
  let wall l =
    match Bench_log.entries l with [ e ] -> e.Bench_log.e_wall_ms | _ -> nan
  in
  Alcotest.(check (float 0.0)) "keeps the faster measurement"
    (min (wall a) (wall b))
    (wall merged);
  (* the first round fills memoized references, so the faster round may
     allocate more: wall time and allocation take their minima apart *)
  let entry wall alloc =
    {
      Bench_log.e_name = "alpha";
      e_wall_ms = wall;
      e_alloc_mwords = alloc;
      e_top_heap_words = 1;
      e_digest = "d";
    }
  in
  let log e =
    let l = Bench_log.create ~pr:99 ~label:"test" ~quick:true in
    Bench_log.record l e;
    l
  in
  let check what a b =
    match Bench_log.entries (Bench_log.min_merge (log a) (log b)) with
    | [ e ] ->
        Alcotest.(check (float 0.0)) (what ^ ": min wall") 10.0
          e.Bench_log.e_wall_ms;
        Alcotest.(check (float 0.0)) (what ^ ": min alloc") 63.5
          e.Bench_log.e_alloc_mwords
    | _ -> Alcotest.fail (what ^ ": one entry expected")
  in
  check "first round faster" (entry 10.0 65.4) (entry 12.0 63.5);
  check "later round faster" (entry 12.0 65.4) (entry 10.0 63.5)

(* {1 Allocation budget}

   The protocol layer's allocation is deterministic for a fixed run, so a
   budget catches a hot-path representation regressing to per-update
   allocation. Gauss small, Base, 64 processors, lrc: every processor
   reads every broadcast page, so each page's watermark maps hold up to 64
   writers. Measured at 95.6 Mw of minor allocation with flat watermark
   maps and diffs (163.8 Mw with sorted pair lists); the budget leaves
   ~15% headroom. *)

let gauss64_budget_mw = 110.0

let test_gauss64_alloc_budget () =
  let cfg = { Config.default with Config.nprocs = 64 } in
  let before = Gc.minor_words () in
  let r =
    Dsm_apps.Gauss.tmk cfg ~size:Dsm_apps.Gauss.small ~behavior:()
      ~level:Dsm_apps.App_common.Base ~async:false
  in
  let mw = (Gc.minor_words () -. before) /. 1e6 in
  Alcotest.(check (float 0.0)) "correct" 0.0 r.Dsm_apps.App_common.max_err;
  if mw > gauss64_budget_mw then
    Alcotest.failf "Gauss small/Base/64 allocated %.1f Mw > budget %.1f Mw"
      mw gauss64_budget_mw

(* The kernels' inner loops move columns with page spans, so an
   8-processor small Base run allocates little beyond the protocol's own
   bookkeeping. Budgets are the measured minor allocation with ~15%
   headroom: Gauss 3.69 Mw with its owner step staged in a buffer (4.01
   with that step per element), IS 0.45 Mw, FFT-3D 0.39 Mw and Shallow
   1.56 Mw; Jacobi and MGS, budgeted from 1.88 and 1.40 Mw, now measure
   1.77 and 1.18. The element-at-a-time loops, with a boxed float
   per load and a closure per read-modify-write, allocated 28.4, 61.1
   and 16.5 Mw (Jacobi, Gauss, MGS), and IS's ranking through a hash
   table of the keys seen so far 1.13 Mw. *)
let kernel_budgets_mw =
  [
    ( "jacobi",
      2.2,
      fun cfg ->
        Dsm_apps.Jacobi.tmk cfg ~size:Dsm_apps.Jacobi.small ~behavior:()
          ~level:Dsm_apps.App_common.Base ~async:false );
    ( "gauss",
      4.3,
      fun cfg ->
        Dsm_apps.Gauss.tmk cfg ~size:Dsm_apps.Gauss.small ~behavior:()
          ~level:Dsm_apps.App_common.Base ~async:false );
    ( "mgs",
      1.6,
      fun cfg ->
        Dsm_apps.Mgs.tmk cfg ~size:Dsm_apps.Mgs.small ~behavior:()
          ~level:Dsm_apps.App_common.Base ~async:false );
    ( "is",
      0.52,
      fun cfg ->
        Dsm_apps.Is.tmk cfg ~size:Dsm_apps.Is.small ~behavior:()
          ~level:Dsm_apps.App_common.Base ~async:false );
  ]

(* budgeted later than the four above; their cases go at the end of the
   list, so the older cases keep their indices *)
let later_kernel_budgets_mw =
  [
    ( "fft3d",
      0.45,
      fun cfg ->
        Dsm_apps.Fft3d.tmk cfg ~size:Dsm_apps.Fft3d.small ~behavior:()
          ~level:Dsm_apps.App_common.Base ~async:false );
    ( "shallow",
      1.8,
      fun cfg ->
        Dsm_apps.Shallow.tmk cfg ~size:Dsm_apps.Shallow.small ~behavior:()
          ~level:Dsm_apps.App_common.Base ~async:false );
  ]

let test_kernel_alloc_budget (name, budget_mw, run) () =
  let cfg = { Config.default with Config.nprocs = 8 } in
  (* the sequential reference is memoized: build it outside the
     measurement *)
  ignore (run cfg);
  let before = Gc.minor_words () in
  let r = run cfg in
  let mw = (Gc.minor_words () -. before) /. 1e6 in
  Alcotest.(check (float 0.0)) "correct" 0.0 r.Dsm_apps.App_common.max_err;
  if mw > budget_mw then
    Alcotest.failf "%s small/Base/8 allocated %.2f Mw > budget %.2f Mw" name
      mw budget_mw

let kernel_budget_cases =
  List.map (fun ((name, _, _) as k) ->
      Alcotest.test_case ("alloc budget: " ^ name ^ " 8 procs") `Quick
        (test_kernel_alloc_budget k))

(* IS small, Base, 64 processors, lrc: every processor writes every
   bucket page, so each fault applies the diffs of ~32 writers. Measured
   at 124.5 Mw with page-indexed diff cells and one unit list per page
   (216.4 Mw with (writer, page)-keyed cells and per-page unit tables);
   the budget leaves ~15% headroom. *)
let is64_budget_mw = 143.0

let test_is64_alloc_budget () =
  let cfg = { Config.default with Config.nprocs = 64 } in
  let run () =
    Dsm_apps.Is.tmk cfg ~size:Dsm_apps.Is.small ~behavior:()
      ~level:Dsm_apps.App_common.Base ~async:false
  in
  ignore (run ());
  let before = Gc.minor_words () in
  let r = run () in
  let mw = (Gc.minor_words () -. before) /. 1e6 in
  Alcotest.(check (float 0.0)) "correct" 0.0 r.Dsm_apps.App_common.max_err;
  if mw > is64_budget_mw then
    Alcotest.failf "IS small/Base/64 allocated %.1f Mw > budget %.1f Mw" mw
      is64_budget_mw

(* Gauss small, Base, 8 processors, hlrc: every release flushes one diff
   per dirty page to its home, and the flush fetches the page's units
   from the diff store, whose cells coalesce past eight entries. Measured
   at 13.7 Mw of minor allocation with slot-indexed store cells and a
   segment-walk merge (31.5 Mw when every coalesce rebuilt the cell's
   whole entry list and merged through a page-sized byte mask); the
   budget leaves ~15% headroom. *)
let gauss_hlrc_budget_mw = 15.8

let test_gauss_hlrc_alloc_budget () =
  let cfg =
    { Config.default with Config.nprocs = 8; Config.backend = Config.Hlrc }
  in
  let run () =
    Dsm_apps.Gauss.tmk cfg ~size:Dsm_apps.Gauss.small ~behavior:()
      ~level:Dsm_apps.App_common.Base ~async:false
  in
  ignore (run ());
  let before = Gc.minor_words () in
  let r = run () in
  let mw = (Gc.minor_words () -. before) /. 1e6 in
  Alcotest.(check (float 0.0)) "correct" 0.0 r.Dsm_apps.App_common.max_err;
  if mw > gauss_hlrc_budget_mw then
    Alcotest.failf "Gauss small/Base/8/hlrc allocated %.2f Mw > budget %.1f Mw"
      mw gauss_hlrc_budget_mw

let tests =
  [
    Alcotest.test_case "alloc budget: gauss 64 procs" `Quick
      test_gauss64_alloc_budget;
  ]
  @ kernel_budget_cases kernel_budgets_mw
  @ [
    Alcotest.test_case "alloc budget: is 64 procs" `Quick
      test_is64_alloc_budget;
    Alcotest.test_case "prof: disabled is a no-op" `Quick
      test_prof_disabled_noop;
    Alcotest.test_case "prof: spans and ticks" `Quick test_prof_spans_and_ticks;
    Alcotest.test_case "prof: exception unwind" `Quick
      test_prof_exception_unwind;
    Alcotest.test_case "prof: no simulation perturbation" `Quick
      test_prof_does_not_perturb_simulation;
    Alcotest.test_case "ilog: count_since" `Quick test_ilog_count_since;
    Alcotest.test_case "ilog: dense seqs enforced" `Quick
      test_ilog_dense_seqs_only;
    Alcotest.test_case "ilog: iter_desc order" `Quick test_ilog_iter_desc;
    Alcotest.test_case "ilog: newest_touch" `Quick test_ilog_newest_touch;
    QCheck_alcotest.to_alcotest test_ilog_index_model;
    Alcotest.test_case "ilog: growth" `Quick test_ilog_grow;
    Alcotest.test_case "bench-log: json roundtrip" `Quick
      test_bench_log_roundtrip;
    Alcotest.test_case "bench-log: digest gate" `Quick test_bench_log_gate;
    Alcotest.test_case "bench-log: best-of-n merge" `Quick
      test_bench_log_min_merge;
    Alcotest.test_case "alloc budget: gauss hlrc 8 procs" `Quick
      test_gauss_hlrc_alloc_budget;
    Alcotest.test_case "sampler: does not perturb the simulation" `Quick
      test_sampler_does_not_perturb_simulation;
    Alcotest.test_case "sampler: interrupted frame attribution" `Quick
      test_sampler_attribution;
  ]
  @ kernel_budget_cases later_kernel_budgets_mw
  @ [
      Alcotest.test_case "sampler: header reports the measured interval"
        `Quick test_sampler_header;
    ]
