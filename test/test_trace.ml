(* Protocol event tracing and the LRC invariant checker.

   Covers: the checker over every application at 1/2/4/8 processors (zero
   violations), trace-on/trace-off determinism (clocks, statistics and
   results bit-identical), the lossless sink, synthetic violating traces
   (the checker must catch them), per-phase summaries, the bounded
   piggy-backed-request table, lock grant ordering under contention, and
   exception propagation out of the fiber scheduler. *)

module Config = Dsm_sim.Config
module Engine = Dsm_sim.Engine
module Event = Dsm_trace.Event
module Sink = Dsm_trace.Sink
module Check = Dsm_trace.Check
module Tmk = Dsm_tmk.Tmk
module Types = Dsm_tmk.Types
open Dsm_apps.App_common

let cfg_n nprocs = { Config.default with Config.nprocs = nprocs }

let check_clean name sink =
  match Check.run_sink sink with
  | [] -> ()
  | vs ->
      Alcotest.failf "%s: %d violations, first: %a" name (List.length vs)
        Check.pp_violation (List.hd vs)

(* {1 Checker over the applications}

   Reduced data sets (the checker cost is linear in the trace, and every
   protocol path is exercised at these sizes too): every app, first and
   last optimization level, 1/2/4/8 processors. *)

let last l = List.fold_left (fun _ x -> x) (List.hd l) l

let check_app_levels (type p)
    (module A : Dsm_apps.Workload.S
      with type size = p
       and type behavior = unit) (prm : p) () =
  List.iter
    (fun nprocs ->
      List.iter
        (fun level ->
          let sink = Sink.create ~nprocs () in
          let r =
            A.tmk ~trace:sink (cfg_n nprocs) ~size:prm ~behavior:() ~level
              ~async:true
          in
          let name =
            Printf.sprintf "%s %s p%d" A.name (opt_level_name level) nprocs
          in
          Alcotest.(check (float 1e-6)) (name ^ ": verified") 0.0 r.max_err;
          Alcotest.(check bool)
            (name ^ ": traced something")
            true
            (Sink.emitted sink > 0);
          check_clean name sink)
        [ List.hd A.levels; last A.levels ])
    [ 1; 2; 4; 8 ]

let jacobi_prm =
  let open Dsm_apps.Jacobi in
  { small with m = 128; iters = 3 }

let shallow_prm =
  let open Dsm_apps.Shallow in
  { small with m = 64; n = 32; steps = 3 }

let gauss_prm =
  let open Dsm_apps.Gauss in
  { small with m = 64 }

let mgs_prm =
  let open Dsm_apps.Mgs in
  { small with m = 48; n = 32 }

let fft3d_prm =
  let open Dsm_apps.Fft3d in
  { small with n = 8; iters = 2 }

let is_prm =
  let open Dsm_apps.Is in
  { small with n_keys = 1 lsl 12; n_buckets = 1 lsl 8; reps = 2 }

(* A processor past the last plane or column owns no data: it charges no
   compute, so its clock never moves backwards ("time-monotone"). *)
let check_idle_procs (type p)
    (module A : Dsm_apps.Workload.S
      with type size = p
       and type behavior = unit) (prm : p) ~nprocs () =
  let sink = Sink.create ~nprocs () in
  let r =
    A.tmk ~trace:sink (cfg_n nprocs) ~size:prm ~behavior:()
      ~level:(List.hd A.levels) ~async:true
  in
  let name = Printf.sprintf "%s p%d" A.name nprocs in
  Alcotest.(check (float 1e-6)) (name ^ ": verified") 0.0 r.max_err;
  check_clean name sink

(* {1 Determinism: tracing is invisible to the simulation} *)

let test_trace_off_identical () =
  let run trace =
    let sink = if trace then Some (Sink.create ~nprocs:4 ()) else None in
    Dsm_apps.Jacobi.tmk ?trace:sink (cfg_n 4) ~size:jacobi_prm ~behavior:()
      ~level:Sync_merge ~async:true
  in
  let off = run false
  and on_ = run true in
  Alcotest.(check (float 0.0)) "elapsed identical" off.time_us on_.time_us;
  Alcotest.(check bool) "stats identical" true (off.stats = on_.stats);
  Alcotest.(check (float 0.0)) "results identical" off.max_err on_.max_err

let test_trace_off_identical_locks () =
  (* lock-heavy program compared field by field, including per-processor
     clocks and the shared array contents *)
  let build () = Tmk.make (cfg_n 4) in
  let program a t =
    let p = Tmk.pid t in
    for i = 0 to 19 do
      Tmk.lock_acquire t 0;
      let v = Dsm_tmk.Shm.F64_1.get t a 0 in
      Dsm_tmk.Shm.F64_1.set t a 0 (v +. 1.0);
      Tmk.charge t (float_of_int (((p + i) mod 3) * 100));
      Tmk.lock_release t 0;
      if i mod 5 = 4 then Tmk.barrier t
    done
  in
  let final sys a =
    let v = ref [] in
    Tmk.run sys (fun t ->
        if Tmk.pid t = 0 then
          v := [ Dsm_tmk.Shm.F64_1.get t a 0 ]);
    !v
  in
  let sys0 = build () in
  let a0 = Tmk.Alloc.array sys0 "a" ~dims:[ 8 ] in
  Tmk.run sys0 (program a0);
  let t0 = Tmk.elapsed sys0
  and s0 = Array.to_list (Tmk.stats sys0) in
  let sys1 = build () in
  let a1 = Tmk.Alloc.array sys1 "a" ~dims:[ 8 ] in
  let sink = Sink.create ~nprocs:4 () in
  Tmk.run ~trace:sink sys1 (program a1);
  let t1 = Tmk.elapsed sys1
  and s1 = Array.to_list (Tmk.stats sys1) in
  Alcotest.(check (float 0.0)) "elapsed identical" t0 t1;
  Alcotest.(check bool) "per-processor stats identical" true (s0 = s1);
  let m0 = final sys0 a0
  and m1 = final sys1 a1 in
  Alcotest.(check bool) "memory identical" true (m0 = m1);
  Alcotest.(check int) "counter" 80 (int_of_float (List.hd m0));
  check_clean "lock program" sink

(* Repeated runs of one configuration emit the same trace event for
   event: the scheduler's pass order is the only interleaving. *)
let test_trace_repeatable () =
  let run () =
    let cfg = Config.default in
    let sink = Sink.create ~nprocs:cfg.Config.nprocs () in
    let r =
      Dsm_apps.Jacobi.tmk ~trace:sink cfg ~size:Dsm_apps.Jacobi.small
        ~behavior:() ~level:Push_opt ~async:true
    in
    (r, List.map Event.to_json (Sink.events sink))
  in
  let r1, t1 = run () in
  let r2, t2 = run () in
  Alcotest.(check (float 0.0)) "same time" r1.time_us r2.time_us;
  Alcotest.(check (list string)) "same trace" t1 t2

(* {1 Sink mechanics} *)

let dummy_kind = Event.Lock_request { lock = 0 }

let test_sink_lossless () =
  let s = Sink.create ~capacity:4 ~nprocs:2 () in
  let vc = [| 0; 0 |] in
  let n = 37 in
  for i = 0 to n - 1 do
    if i mod 5 = 0 then vc.(0) <- vc.(0) + 1;
    Sink.emit s ~proc:(i mod 2) ~time:(float_of_int i) ~vc dummy_kind
  done;
  Alcotest.(check int) "emitted" n (Sink.emitted s);
  Alcotest.(check bool) "the log grew" true (Sink.capacity s >= n);
  let evs = Sink.events s in
  Alcotest.(check (list int)) "every event, in emission order"
    (List.init n Fun.id)
    (List.map (fun (e : Event.t) -> e.id) evs);
  Alcotest.(check (list int)) "one processor's events"
    (List.filter (fun i -> i mod 2 = 1) (List.init n Fun.id))
    (List.map (fun (e : Event.t) -> e.id) (Sink.proc_events s 1));
  (* the stored snapshot is the clock at emission, not the live clock *)
  let last = List.nth evs (n - 1) in
  Alcotest.(check (array int)) "snapshot taken at emission" [| 8; 0 |]
    last.vc;
  vc.(1) <- 99;
  Alcotest.(check (array int)) "later writes do not reach it" [| 8; 0 |]
    last.vc;
  (* equal clocks share one array; a changed clock gets a fresh one *)
  let s = Sink.create ~nprocs:1 () in
  let vc = [| 1 |] in
  Sink.emit s ~proc:0 ~time:0.0 ~vc dummy_kind;
  Sink.emit s ~proc:0 ~time:1.0 ~vc dummy_kind;
  vc.(0) <- 2;
  Sink.emit s ~proc:0 ~time:2.0 ~vc dummy_kind;
  match Sink.events s with
  | [ a; b; c ] ->
      Alcotest.(check bool) "equal clocks share" true (a.vc == b.vc);
      Alcotest.(check bool) "a changed clock is copied" true
        (b.vc != c.vc && c.vc != vc);
      Alcotest.(check (array int)) "old snapshot kept" [| 1 |] a.vc
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)

let test_sink_jsonl () =
  let s = Sink.create ~nprocs:2 () in
  Sink.emit s ~proc:0 ~time:1.5 ~vc:[| 1; 0 |]
    (Event.Notice_send { seq = 1; pages = [ 3; 4 ] });
  Sink.emit s ~proc:1 ~time:2.0 ~vc:[| 0; 0 |]
    (Event.Page_fault { page = 3; write = false; fetch = true });
  let file = Filename.temp_file "dsm_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      Sink.write_jsonl oc s;
      close_out oc;
      let ic = open_in file in
      let lines = In_channel.input_lines ic in
      close_in ic;
      Alcotest.(check int) "one line per event" 2 (List.length lines);
      List.iter
        (fun l ->
          Alcotest.(check bool) "looks like a JSON object" true
            (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
        lines;
      let contains hay needle =
        let nh = String.length hay
        and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "event name serialized" true
        (contains (List.hd lines) "\"ev\":\"notice_send\""))

(* {1 The checker catches bad traces} *)

let ev id proc time vc kind = { Event.id; proc; time; vc; kind }

let rules vs = List.map (fun (v : Check.violation) -> v.rule) vs

let test_checker_catches_vc_regression () =
  let vs =
    Check.run ~nprocs:1
      [
        ev 0 0 1.0 [| 1 |] (Event.Notice_send { seq = 1; pages = [ 0 ] });
        ev 1 0 2.0 [| 0 |] dummy_kind;
      ]
  in
  Alcotest.(check bool) "vc-monotone flagged" true
    (List.mem "vc-monotone" (rules vs))

let test_checker_catches_stale_read () =
  (* a notice leaves the page with unapplied foreign modifications but the
     copy stays readable: the core no-stale-read invariant *)
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 1 1.0 [| 0; 1 |] (Event.Notice_send { seq = 1; pages = [ 5 ] });
        ev 1 0 2.0 [| 0; 0 |]
          (Event.Notice_apply
             { writer = 1; seq = 1; page = 5; invalidated = false });
      ]
  in
  Alcotest.(check bool) "notice-invalidate flagged" true
    (List.mem "notice-invalidate" (rules vs))

let test_checker_catches_unserviced_fault () =
  let vs =
    Check.run ~nprocs:1
      [
        ev 0 0 1.0 [| 0 |]
          (Event.Page_fault { page = 3; write = false; fetch = true });
        ev 1 0 2.0 [| 0 |] (Event.Barrier_arrive { epoch = 0 });
      ]
  in
  Alcotest.(check bool) "fault-serviced flagged" true
    (List.mem "fault-serviced" (rules vs))

let test_checker_catches_future_notice () =
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 0 1.0 [| 0; 0 |]
          (Event.Notice_apply
             { writer = 1; seq = 3; page = 1; invalidated = true });
      ]
  in
  Alcotest.(check bool) "notice-future flagged" true
    (List.mem "notice-future" (rules vs))

let test_checker_catches_out_of_order_apply () =
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 1 1.0 [| 0; 1 |] (Event.Notice_send { seq = 1; pages = [ 2 ] });
        ev 1 1 2.0 [| 0; 2 |] (Event.Notice_send { seq = 2; pages = [ 2 ] });
        ev 2 0 3.0 [| 0; 0 |]
          (Event.Diff_apply
             { writer = 1; page = 2; order = 9; upto_seq = 2; bytes = 8 });
        ev 3 0 4.0 [| 0; 0 |]
          (Event.Diff_apply
             { writer = 1; page = 2; order = 5; upto_seq = 1; bytes = 8 });
      ]
  in
  Alcotest.(check bool) "apply-order-writer flagged" true
    (List.mem "apply-order-writer" (rules vs))

(* {2 HLRC home rules} *)

let test_home_events_json_roundtrip () =
  List.iter
    (fun kind ->
      let e = ev 7 1 3.25 [| 2; 5 |] kind in
      let e' = Event.of_json (Event.to_json e) in
      Alcotest.(check bool)
        (Event.kind_name kind ^ " round-trips")
        true (e' = e))
    [
      Event.Home_flush { page = 12; home = 3; seq = 9; bytes = 128 };
      Event.Home_fetch { page = 12; home = 3; bytes = 4096 };
      Event.Home_fetch { page = 0; home = 0; bytes = 0 };
    ]

(* {2 Invalidate / adaptive events} *)

let test_inval_events_json_roundtrip () =
  List.iter
    (fun kind ->
      let e = ev 7 1 3.25 [| 2; 5 |] kind in
      let e' = Event.of_json (Event.to_json e) in
      Alcotest.(check bool)
        (Event.kind_name kind ^ " round-trips")
        true (e' = e))
    [
      Event.Inval_send { page = 12; dst = 3 };
      Event.Inval_ack { page = 12; writer = 0 };
      Event.Downgrade { page = 4095; reader = 7 };
      Event.Proto_switch { page = 3; proto = "hlrc"; owner = 2; epoch = 11 };
      Event.Proto_switch { page = 0; proto = "lrc"; owner = -1; epoch = 0 };
    ]

let test_checker_catches_redundant_inval () =
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 0 1.0 [| 0; 0 |] (Event.Inval_send { page = 2; dst = 1 });
        ev 1 1 2.0 [| 0; 0 |] (Event.Inval_ack { page = 2; writer = 0 });
        ev 2 0 3.0 [| 0; 0 |] (Event.Inval_send { page = 2; dst = 1 });
      ]
  in
  Alcotest.(check bool) "inval-redundant flagged" true
    (List.mem "inval-redundant" (rules vs))

let test_checker_catches_unrequested_ack () =
  let vs =
    Check.run ~nprocs:2
      [ ev 0 1 1.0 [| 0; 0 |] (Event.Inval_ack { page = 2; writer = 0 }) ]
  in
  Alcotest.(check bool) "inval-ack-unrequested flagged" true
    (List.mem "inval-ack-unrequested" (rules vs))

let test_checker_catches_unacked_inval () =
  let vs =
    Check.run ~nprocs:2
      [ ev 0 0 1.0 [| 0; 0 |] (Event.Inval_send { page = 2; dst = 1 }) ]
  in
  Alcotest.(check bool) "inval-unacked flagged" true
    (List.mem "inval-unacked" (rules vs))

let test_checker_catches_stale_writer () =
  (* exclusivity granted to p1 whose own copy was invalidated and never
     refetched *)
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 0 1.0 [| 0; 0 |] (Event.Inval_send { page = 2; dst = 1 });
        ev 1 1 2.0 [| 0; 0 |] (Event.Inval_ack { page = 2; writer = 0 });
        ev 2 0 3.0 [| 0; 0 |] (Event.Inval_send { page = 2; dst = 0 });
        ev 3 0 4.0 [| 0; 0 |] (Event.Inval_ack { page = 2; writer = 1 });
      ]
  in
  Alcotest.(check bool) "inval-writer-stale flagged" true
    (List.mem "inval-writer-stale" (rules vs))

(* {2 Tolerant line parsing and file loading} *)

let good_line =
  Event.to_json (ev 0 1 1.5 [| 0; 1 |] (Event.Inval_send { page = 1; dst = 0 }))

(* a structurally valid line whose kind this parser does not know, as a
   trace written by some future binary would contain *)
let unknown_line =
  {|{"id":9,"proc":0,"time":2.000,"vc":[0,0],"ev":"warp_speculate","page":3}|}

let test_parse_line_variants () =
  (match Event.parse_line good_line with
  | Event.Event e ->
      Alcotest.(check string)
        "kind preserved" "inval_send"
        (Event.kind_name e.Event.kind)
  | Event.Unknown_kind _ | Event.Malformed _ ->
      Alcotest.fail "valid line must parse");
  (match Event.parse_line unknown_line with
  | Event.Unknown_kind k ->
      Alcotest.(check string) "kind name reported" "warp_speculate" k
  | Event.Event _ | Event.Malformed _ ->
      Alcotest.fail "unknown kind must be classified, not rejected");
  (* a torn write glued to the next record, or any other trailing input
     after the object, is malformed too: accepting it would silently lose
     the second event *)
  List.iter
    (fun (what, line) ->
      match Event.parse_line line with
      | Event.Malformed _ -> ()
      | Event.Event _ | Event.Unknown_kind _ ->
          Alcotest.failf "%s must be malformed" what)
    [
      ("torn line", String.sub good_line 0 (String.length good_line / 2));
      ("glued line", good_line ^ good_line);
      ("trailing garbage", good_line ^ " garbage");
    ]

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let write_tmp contents =
  let path = Filename.temp_file "dsm_trace_test" ".jsonl" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let load_tmp contents =
  let path = write_tmp contents in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () -> Event.load_jsonl path)

let test_load_jsonl_unknown_kind () =
  let l = load_tmp (good_line ^ "\n" ^ unknown_line ^ "\n" ^ good_line ^ "\n") in
  Alcotest.(check int) "known events kept" 2 (List.length l.Event.events);
  Alcotest.(check int) "one unknown kind" 1 l.Event.unknown_kinds;
  match l.Event.warnings with
  | [ (line, msg) ] ->
      Alcotest.(check int) "warning on line 2" 2 line;
      Alcotest.(check bool)
        "warning names the kind" true
        (contains ~sub:"warp_speculate" msg)
  | ws -> Alcotest.failf "expected exactly one warning, got %d" (List.length ws)

let test_load_jsonl_truncated () =
  (* a crash mid-write leaves a torn final line with no newline *)
  let torn = String.sub good_line 0 (String.length good_line - 7) in
  let l = load_tmp (good_line ^ "\n" ^ good_line ^ "\n" ^ torn) in
  Alcotest.(check int) "whole lines kept" 2 (List.length l.Event.events);
  Alcotest.(check int) "no unknown kinds" 0 l.Event.unknown_kinds;
  match l.Event.warnings with
  | [ (line, msg) ] ->
      Alcotest.(check int) "warning on the final line" 3 line;
      Alcotest.(check bool)
        "reported as truncation" true
        (contains ~sub:"truncated final line" msg)
  | ws -> Alcotest.failf "expected exactly one warning, got %d" (List.length ws)

let test_load_jsonl_roundtrip () =
  let evs =
    [
      ev 0 0 1.0 [| 1; 0 |] (Event.Notice_send { seq = 1; pages = [ 2 ] });
      ev 1 1 2.0 [| 0; 1 |] (Event.Downgrade { page = 2; reader = 0 });
      ev 2 0 3.0 [| 1; 1 |]
        (Event.Proto_switch { page = 2; proto = "inval"; owner = 1; epoch = 4 });
    ]
  in
  let l =
    load_tmp (String.concat "\n" (List.map Event.to_json evs) ^ "\n")
  in
  Alcotest.(check int) "no warnings" 0 (List.length l.Event.warnings);
  Alcotest.(check bool) "events round-trip" true (l.Event.events = evs)

(* Mid-file, the glued line is a warning (so --strict-recheck fails the
   load) and the lines around it still parse. *)
let test_load_jsonl_glued_line () =
  let contents =
    String.concat "\n" [ good_line; good_line ^ good_line; good_line; "" ]
  in
  let l = load_tmp contents in
  Alcotest.(check int) "whole lines kept" 2 (List.length l.Event.events);
  (match l.Event.warnings with
  | [ (line, msg) ] ->
      Alcotest.(check int) "warning on line 2" 2 line;
      Alcotest.(check bool)
        "reported as malformed" true
        (contains ~sub:"malformed line" msg)
  | ws -> Alcotest.failf "expected exactly one warning, got %d" (List.length ws));
  let path = write_tmp contents in
  let code =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Sys.command
          (Printf.sprintf
             "../bin/dsm_run.exe --recheck %s --procs 2 --strict-recheck \
              > /dev/null 2>&1"
             (Filename.quote path)))
  in
  Alcotest.(check int) "--strict-recheck rejects the file" 124 code

(* A re-check takes the processor count from the trace's vector clocks:
   a 2-processor trace checks clean without --procs (the run default of 8
   would flag every event), and a --procs that disagrees with the trace
   is a usage error naming --procs. *)
let test_recheck_procs_from_trace () =
  let trace = Filename.temp_file "recheck" ".jsonl"
  and out = Filename.temp_file "recheck" ".txt" in
  let dsm_run args =
    let code =
      Sys.command
        (Printf.sprintf "../bin/dsm_run.exe %s > %s 2>&1" args
           (Filename.quote out))
    in
    (code, In_channel.with_open_bin out In_channel.input_all)
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove trace; Sys.remove out)
    (fun () ->
      let code, _ =
        dsm_run
          (Printf.sprintf "--app jacobi --procs 2 --trace %s"
             (Filename.quote trace))
      in
      Alcotest.(check int) "traced run" 0 code;
      let code, text =
        dsm_run
          (Printf.sprintf "--recheck %s --strict-recheck"
             (Filename.quote trace))
      in
      Alcotest.(check int) "re-check without --procs" 0 code;
      Alcotest.(check bool) "0 violations" true
        (contains ~sub:" 0 violations" text);
      let code, text =
        dsm_run (Printf.sprintf "--recheck %s --procs 8" (Filename.quote trace))
      in
      Alcotest.(check int) "wrong --procs is a cli error" 124 code;
      Alcotest.(check bool) "error names --procs" true
        (contains ~sub:"--procs:" text))

(* One sample of every event kind, with the corners the per-family cases
   miss: a float field, a -1 owner and empty int lists. *)
let every_kind =
  Event.
    [
      Page_fault { page = 3; write = true; fetch = false };
      Twin { page = 3 };
      Diff_create { page = 3; seq = 2; bytes = 64; write_all = true };
      Diff_fetch { writer = 1; page = 3; after = 0; upto = 2 };
      Diff_apply { writer = 1; page = 3; order = 5; upto_seq = 2; bytes = 64 };
      Fetch_done { page = 3; full = true };
      Notice_send { seq = 2; pages = [] };
      Notice_apply { writer = 1; seq = 2; page = 3; invalidated = true };
      Barrier_arrive { epoch = 4 };
      Barrier_depart { epoch = 4 };
      Lock_request { lock = 0 };
      Lock_grant { lock = 0; grantor = 1; notices = 0 };
      Validate
        { access = "WRITE_ALL"; npages = 2; async = true; w_sync = false };
      Push_send { dst = 1; bytes = 128; seq = 2 };
      Push_recv { src = 0; bytes = 128; seq = 2; pages = [ 3; 4 ] };
      Push_rollback { page = 3; writer = 0; seq = 2 };
      Broadcast { bytes = 4096; requesters = [] };
      Home_flush { page = 3; home = 1; seq = 2; bytes = 64 };
      Home_fetch { page = 3; home = 1; bytes = 4096 };
      Inval_send { page = 3; dst = 1 };
      Inval_ack { page = 3; writer = 0 };
      Downgrade { page = 3; reader = 1 };
      Proto_switch { page = 3; proto = "lrc"; owner = -1; epoch = 4 };
      Plan_applied { lo_page = 0; hi_page = 7; proto = "hlrc"; owner = 2 };
      Obj_region { base_page = 0; npages = 4; obj_size = 64; count = 256 };
      Obj_skip { page = 3; slots = [] };
      Crash { epoch = 4 };
      Restart { epoch = 5; ckpt = 1 };
      Suspect { peer = 1; attempts = 8 };
      Quorum_write { page = 3; seq = 2; acks = [ 1; 2 ]; needed = 2 };
      Quorum_read { page = 3; from = 2; acks = []; needed = 2 };
      Ckpt { id = 1; ckpt_epoch = 4 };
      Msg_drop { msg = 17; src = 0; dst = 1; attempt = 1 };
      Msg_dup { msg = 17; src = 0; dst = 1 };
      Retransmit { msg = 17; src = 0; dst = 1; attempt = 2 };
      Timeout_fire
        { msg = 17; src = 0; dst = 1; attempt = 1; backoff_us = 312.5 };
      Ack { msg = 17; src = 0; dst = 1; attempts = 2 };
    ]

let test_every_kind_roundtrip () =
  List.iter
    (fun kind ->
      let e = ev 7 1 3.25 [| 2; 5 |] kind in
      Alcotest.(check bool)
        (Event.kind_name kind ^ " round-trips")
        true
        (Event.of_json (Event.to_json e) = e))
    every_kind;
  let names = List.map Event.kind_name every_kind in
  Alcotest.(check int) "kind names pairwise distinct" (List.length names)
    (List.length (List.sort_uniq compare names))

(* {2 Integer fields and parser fuzzing} *)

(* An integer field holding a fraction or an out-of-range number is a
   malformed line naming the field, not a truncated plausible event. *)
let test_parse_line_rejects_non_integers () =
  let line ?(id = "0") ?(proc = "1") ?(vc = "[0,1]") ?(page = "3") () =
    Printf.sprintf
      {|{"id":%s,"proc":%s,"time":1.5,"vc":%s,"ev":"twin","page":%s}|} id
      proc vc page
  in
  (match Event.parse_line (line ()) with
  | Event.Event _ -> ()
  | Event.Unknown_kind _ | Event.Malformed _ ->
      Alcotest.fail "the unmutated line must parse");
  List.iter
    (fun (field, line) ->
      match Event.parse_line line with
      | Event.Malformed msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S names the field" line msg)
            true
            (contains ~sub:(Printf.sprintf "%S" field) msg)
      | Event.Event _ | Event.Unknown_kind _ ->
          Alcotest.failf "%s must be malformed" line)
    [
      ("page", line ~page:"1.5" ());
      ("proc", line ~proc:"1.9" ());
      ("vc", line ~vc:"[0.7,0]" ());
      ("vc", line ~vc:"[0,1e300]" ());
      ("id", line ~id:"1e300" ());
      ("page", line ~page:"-9007199254740994" ());
    ]

(* Random edits of a valid line: a number replaced by another (a
   fraction, a huge or negative one, nothing), a span replaced by a token
   that tends to break a parser, one byte replaced, a truncation, or a
   span repeated; one to four of them. *)
let mutate line =
  let open QCheck.Gen in
  let numbers =
    [ ""; "1.5"; "0.7"; "-1"; "-0"; "2e3"; "1e999"; "9007199254740993" ]
  in
  let tokens =
    numbers
    @ [ "\""; "\\"; "["; "]"; "{"; "}"; ","; ":"; "true"; "null"; "[]";
        "-"; "e"; " "; "[1,"; "\"ev\":\"twin\"" ]
  in
  let is_num c = (c >= '0' && c <= '9') || c = '.' || c = '-' in
  let edit s =
    let n = String.length s in
    int_bound n >>= fun i ->
    int_bound (n - i) >>= fun len ->
    let splice mid =
      String.sub s 0 i ^ mid ^ String.sub s (i + len) (n - i - len)
    in
    (* the number at or after [i], if any *)
    let renumber tok =
      match Seq.find (fun j -> is_num s.[j]) (Seq.init (n - i) (( + ) i)) with
      | None -> splice tok
      | Some lo ->
          let hi = ref lo in
          while !hi < n && is_num s.[!hi] do incr hi done;
          String.sub s 0 lo ^ tok ^ String.sub s !hi (n - !hi)
    in
    oneof
      [
        map renumber (oneofl numbers);
        map splice (oneofl tokens);
        map (fun c -> splice (String.make 1 c)) char;
        return (String.sub s 0 i);
        return (splice (String.sub s i len ^ String.sub s i len));
      ]
  in
  let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
  int_range 1 4 >>= fun k -> edits k line

let every_kind_lines =
  List.map (fun kind -> Event.to_json (ev 7 1 3.25 [| 2; 5 |] kind)) every_kind

(* [parse_line] classifies every input; an exception escaping it would
   crash the tolerant loader it exists for. *)
let parses_without_raising line =
  match Event.parse_line line with
  | Event.Event _ | Event.Unknown_kind _ | Event.Malformed _ -> true

let prop_parse_line_mutations =
  QCheck.Test.make ~count:3000
    ~name:"fuzz: parse_line classifies mutated lines of every kind"
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(oneofl every_kind_lines >>= mutate))
    parses_without_raising

let prop_parse_line_bytes =
  QCheck.Test.make ~count:2000
    ~name:"fuzz: parse_line classifies random bytes"
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         oneof
           [
             string_size (int_bound 120);
             map (fun s -> "{" ^ s) (string_size (int_bound 120));
           ]))
    parses_without_raising

let test_checker_catches_moving_home () =
  let vs =
    Check.run ~nprocs:3
      [
        ev 0 0 1.0 [| 1; 0; 0 |] (Event.Notice_send { seq = 1; pages = [ 2 ] });
        ev 1 0 1.1 [| 1; 0; 0 |]
          (Event.Home_flush { page = 2; home = 1; seq = 1; bytes = 8 });
        ev 2 0 1.2 [| 1; 0; 0 |]
          (Event.Home_fetch { page = 2; home = 2; bytes = 64 });
      ]
  in
  Alcotest.(check bool) "home-consistent flagged" true
    (List.mem "home-consistent" (rules vs))

let test_checker_catches_self_flush () =
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 0 1.0 [| 1; 0 |] (Event.Notice_send { seq = 1; pages = [ 2 ] });
        ev 1 0 1.1 [| 1; 0 |]
          (Event.Home_flush { page = 2; home = 0; seq = 1; bytes = 8 });
      ]
  in
  Alcotest.(check bool) "home-flush-self flagged" true
    (List.mem "home-flush-self" (rules vs))

let test_checker_catches_future_flush () =
  (* flushing an interval the processor never released *)
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 0 1.0 [| 0; 0 |]
          (Event.Home_flush { page = 2; home = 1; seq = 5; bytes = 8 });
      ]
  in
  Alcotest.(check bool) "home-flush-future flagged" true
    (List.mem "home-flush-future" (rules vs))

let test_checker_catches_repeated_flush () =
  (* the home-flushed watermark must advance: re-flushing an interval the
     home already covers would re-apply stale bytes *)
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 0 1.0 [| 1; 0 |] (Event.Notice_send { seq = 1; pages = [ 2 ] });
        ev 1 0 1.1 [| 1; 0 |]
          (Event.Home_flush { page = 2; home = 1; seq = 1; bytes = 8 });
        ev 2 0 1.2 [| 1; 0 |]
          (Event.Home_flush { page = 2; home = 1; seq = 1; bytes = 8 });
      ]
  in
  Alcotest.(check bool) "home-flush-stale flagged" true
    (List.mem "home-flush-stale" (rules vs))

let test_checker_catches_nonempty_self_fetch () =
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 0 1.0 [| 0; 0 |]
          (Event.Home_fetch { page = 3; home = 0; bytes = 64 });
      ]
  in
  Alcotest.(check bool) "home-fetch-self flagged" true
    (List.mem "home-fetch-self" (rules vs))

let test_checker_catches_empty_remote_fetch () =
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 0 1.0 [| 0; 0 |]
          (Event.Home_fetch { page = 3; home = 1; bytes = 0 });
      ]
  in
  Alcotest.(check bool) "home-fetch-bytes flagged" true
    (List.mem "home-fetch-bytes" (rules vs))

let test_checker_catches_behind_home () =
  (* the fetcher holds a notice for p1's interval 1 but the home copy never
     received a flush for it: the flush-precedes-notice soundness condition *)
  let vs =
    Check.run ~nprocs:3
      [
        ev 0 1 1.0 [| 0; 1; 0 |] (Event.Notice_send { seq = 1; pages = [ 4 ] });
        ev 1 0 2.0 [| 0; 0; 0 |]
          (Event.Notice_apply
             { writer = 1; seq = 1; page = 4; invalidated = true });
        ev 2 0 3.0 [| 0; 1; 0 |]
          (Event.Home_fetch { page = 4; home = 2; bytes = 64 });
      ]
  in
  Alcotest.(check bool) "home-fetch-current flagged" true
    (List.mem "home-fetch-current" (rules vs))

let test_checker_accepts_clean_hlrc_trace () =
  (* writer 1 flushes to home 0 before its notice travels; the home
     revalidates locally (zero-byte self fetch) at its fault *)
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 1 1.0 [| 0; 1 |] (Event.Notice_send { seq = 1; pages = [ 5 ] });
        ev 1 1 1.1 [| 0; 1 |]
          (Event.Home_flush { page = 5; home = 0; seq = 1; bytes = 24 });
        ev 2 1 1.5 [| 0; 1 |] (Event.Barrier_arrive { epoch = 0 });
        ev 3 0 1.6 [| 0; 0 |] (Event.Barrier_arrive { epoch = 0 });
        ev 4 0 2.0 [| 0; 0 |] (Event.Barrier_depart { epoch = 0 });
        ev 5 0 2.1 [| 0; 1 |]
          (Event.Notice_apply
             { writer = 1; seq = 1; page = 5; invalidated = true });
        ev 6 1 2.2 [| 0; 1 |] (Event.Barrier_depart { epoch = 0 });
        ev 7 0 3.0 [| 0; 1 |]
          (Event.Page_fault { page = 5; write = false; fetch = true });
        ev 8 0 3.1 [| 0; 1 |]
          (Event.Home_fetch { page = 5; home = 0; bytes = 0 });
        ev 9 0 3.2 [| 0; 1 |] (Event.Fetch_done { page = 5; full = true });
      ]
  in
  (match vs with
  | [] -> ()
  | v :: _ -> Alcotest.failf "unexpected: %a" Check.pp_violation v);
  Alcotest.(check int) "clean" 0 (List.length vs)

let test_checker_accepts_clean_trace () =
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 1 1.0 [| 0; 1 |] (Event.Notice_send { seq = 1; pages = [ 5 ] });
        ev 1 1 1.5 [| 0; 1 |] (Event.Barrier_arrive { epoch = 0 });
        ev 2 0 1.6 [| 0; 0 |] (Event.Barrier_arrive { epoch = 0 });
        ev 3 0 2.0 [| 0; 0 |] (Event.Barrier_depart { epoch = 0 });
        ev 4 0 2.1 [| 0; 1 |]
          (Event.Notice_apply
             { writer = 1; seq = 1; page = 5; invalidated = true });
        ev 5 1 2.2 [| 0; 1 |] (Event.Barrier_depart { epoch = 0 });
        ev 6 0 3.0 [| 0; 1 |]
          (Event.Page_fault { page = 5; write = false; fetch = true });
        ev 7 0 3.5 [| 0; 1 |]
          (Event.Diff_fetch { writer = 1; page = 5; after = 0; upto = 1 });
        ev 8 0 3.6 [| 0; 1 |]
          (Event.Diff_apply
             { writer = 1; page = 5; order = 1; upto_seq = 1; bytes = 16 });
        ev 9 0 4.0 [| 0; 1 |] (Event.Fetch_done { page = 5; full = true });
      ]
  in
  Alcotest.(check int) "clean" 0 (List.length vs)

(* {1 Per-phase summaries} *)

let test_phases () =
  let nprocs = 4 in
  let sink = Sink.create ~nprocs () in
  let r =
    Dsm_apps.Jacobi.tmk ~trace:sink (cfg_n nprocs) ~size:jacobi_prm
      ~behavior:() ~level:Base ~async:false
  in
  Alcotest.(check (float 1e-6)) "verified" 0.0 r.max_err;
  let phases = Dsm_harness.Phases.of_events (Sink.events sink) in
  Alcotest.(check bool) "several phases" true (List.length phases >= 3);
  Alcotest.(check int) "every event attributed"
    (Sink.emitted sink)
    (List.fold_left
       (fun acc (p : Dsm_harness.Phases.phase) -> acc + p.events)
       0 phases);
  let rec monotone = function
    | (a : Dsm_harness.Phases.phase) :: (b : Dsm_harness.Phases.phase) :: tl ->
        a.end_time <= b.end_time && a.epoch < b.epoch && monotone (b :: tl)
    | _ -> true
  in
  Alcotest.(check bool) "epochs and end times increase" true (monotone phases);
  ignore (Format.asprintf "%a" Dsm_harness.Phases.pp phases)

(* {1 Bounded piggy-backed-request table} *)

let test_wsync_table_bounded () =
  let nprocs = 4 in
  let sys = Tmk.make (cfg_n nprocs) in
  let a = Tmk.Alloc.array sys "a" ~dims:[ 512 ] in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      for i = 0 to 49 do
        Tmk.validate_w_sync t
          [ Dsm_tmk.Shm.F64_1.section a (0, 511, 1) ]
          Tmk.Read;
        Tmk.barrier t;
        Dsm_tmk.Shm.F64_1.set t a ((i + (p * 64)) mod 512) 1.0;
        Tmk.barrier t
      done);
  (* every epoch fully departed: both per-epoch tables must be empty (the
     seed kept one wsync_tbl entry per requesting epoch forever) *)
  let b = sys.Types.barrier in
  Alcotest.(check int) "wsync_tbl pruned" 0 (Hashtbl.length b.Types.wsync_tbl);
  Alcotest.(check int) "wsync_done pruned" 0
    (Hashtbl.length b.Types.wsync_done)

(* {1 Lock grant ordering} *)

let test_lock_fifo_staged () =
  (* proc 0 takes the lock at once and holds it long enough for every other
     processor's request to arrive, staggered by known charges: grants must
     follow arrival order *)
  let sys = Tmk.make (cfg_n 4) in
  let order = ref [] in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      if p > 0 then Tmk.charge t (float_of_int p *. 5_000.0);
      Tmk.lock_acquire t 0;
      order := p :: !order;
      if p = 0 then Tmk.charge t 100_000.0;
      Tmk.lock_release t 0);
  Alcotest.(check (list int)) "grants follow arrival order" [ 0; 1; 2; 3 ]
    (List.rev !order)

let test_lock_contention () =
  (* 8 processors x 100 acquires on one lock: mutual exclusion holds, every
     processor gets every grant it asked for, and the run is deterministic *)
  let run () =
    let sys = Tmk.make (cfg_n 8) in
    let counter = ref 0 in
    let grants = ref [] in
    let sink = Sink.create ~nprocs:8 () in
    Tmk.run ~trace:sink sys (fun t ->
        let p = Tmk.pid t in
        for i = 0 to 99 do
          Tmk.lock_acquire t 0;
          counter := !counter + 1;
          grants := p :: !grants;
          Tmk.charge t (float_of_int (((p * 7) + i) mod 5));
          Tmk.lock_release t 0
        done);
    (!counter, List.rev !grants, Tmk.elapsed sys, sink)
  in
  let c0, g0, t0, sink = run () in
  let c1, g1, t1, _ = run () in
  Alcotest.(check int) "all 800 sections ran" 800 c0;
  List.iteri
    (fun p n ->
      Alcotest.(check int) (Printf.sprintf "p%d got 100 grants" p) 100 n)
    (List.init 8 (fun p -> List.length (List.filter (( = ) p) g0)));
  Alcotest.(check bool) "grant order deterministic" true (g0 = g1);
  Alcotest.(check int) "counter deterministic" c0 c1;
  Alcotest.(check (float 0.0)) "elapsed deterministic" t0 t1;
  let requests, granted =
    List.fold_left
      (fun (r, g) (e : Event.t) ->
        match e.kind with
        | Event.Lock_request _ -> (r + 1, g)
        | Event.Lock_grant _ -> (r, g + 1)
        | _ -> (r, g))
      (0, 0) (Sink.events sink)
  in
  Alcotest.(check int) "every request traced" 800 requests;
  Alcotest.(check int) "every grant traced" 800 granted;
  check_clean "contended locks" sink

(* {1 Exception propagation out of the scheduler} *)

let test_engine_proc_failure () =
  let cleaned = Array.make 3 false in
  let flag = ref false in
  let result =
    try
      Engine.run ~nprocs:3 (fun p ->
          Fun.protect
            ~finally:(fun () -> cleaned.(p) <- true)
            (fun () ->
              if p = 1 then begin
                Engine.yield ();
                failwith "boom"
              end
              else Engine.block ~until:(fun () -> !flag)));
      `Returned
    with
    | Engine.Proc_failure (1, Failure m) when m = "boom" ->
        `Failed_as_expected
    | e -> `Wrong_exn (Printexc.to_string e)
  in
  (match result with
  | `Failed_as_expected -> ()
  | `Returned -> Alcotest.fail "expected Proc_failure, got normal return"
  | `Wrong_exn s -> Alcotest.failf "expected Proc_failure (1, boom), got %s" s);
  Alcotest.(check bool) "raising fiber unwound" true cleaned.(1);
  (* the blocked siblings were discontinued, not leaked: their cleanup
     handlers ran *)
  Alcotest.(check bool) "waiting fiber 0 unwound" true cleaned.(0);
  Alcotest.(check bool) "waiting fiber 2 unwound" true cleaned.(2)

let test_tmk_failure_mid_barrier () =
  (* processors 0,1,3 are parked inside the barrier when 2 fails: the
     failure must surface (annotated) instead of leaving the run stuck with
     leaked continuations, and the engine must stay usable afterwards *)
  let sys = Tmk.make (cfg_n 4) in
  let a = Tmk.Alloc.array sys "a" ~dims:[ 64 ] in
  (match
     Tmk.run sys (fun t ->
         let p = Tmk.pid t in
         Dsm_tmk.Shm.F64_1.set t a p 1.0;
         if p = 2 then failwith "app bug";
         Tmk.barrier t)
   with
  | () -> Alcotest.fail "expected Proc_failure"
  | exception Engine.Proc_failure (2, Failure m) when m = "app bug" -> ()
  | exception e ->
      Alcotest.failf "expected Proc_failure (2, ...), got %s"
        (Printexc.to_string e));
  let sys2 = Tmk.make (cfg_n 4) in
  let b = Tmk.Alloc.array sys2 "b" ~dims:[ 64 ] in
  let ok = ref 0 in
  Tmk.run sys2 (fun t ->
      Dsm_tmk.Shm.F64_1.set t b (Tmk.pid t) 2.0;
      Tmk.barrier t;
      if Tmk.pid t = 0 then
        for q = 0 to 3 do
          if Dsm_tmk.Shm.F64_1.get t b q = 2.0 then incr ok
        done);
  Alcotest.(check int) "fresh run works after a failure" 4 !ok

let tests =
  [
    Alcotest.test_case "checker: jacobi 1/2/4/8 procs" `Quick
      (check_app_levels (module Dsm_apps.Jacobi) jacobi_prm);
    Alcotest.test_case "checker: shallow 1/2/4/8 procs" `Quick
      (check_app_levels (module Dsm_apps.Shallow) shallow_prm);
    Alcotest.test_case "checker: gauss 1/2/4/8 procs" `Quick
      (check_app_levels (module Dsm_apps.Gauss) gauss_prm);
    Alcotest.test_case "checker: mgs 1/2/4/8 procs" `Quick
      (check_app_levels (module Dsm_apps.Mgs) mgs_prm);
    Alcotest.test_case "checker: fft3d 1/2/4/8 procs" `Quick
      (check_app_levels (module Dsm_apps.Fft3d) fft3d_prm);
    Alcotest.test_case "checker: is 1/2/4/8 procs" `Quick
      (check_app_levels (module Dsm_apps.Is) is_prm);
    Alcotest.test_case "tracing off = tracing on (app)" `Quick
      test_trace_off_identical;
    Alcotest.test_case "tracing off = tracing on (locks)" `Quick
      test_trace_off_identical_locks;
    Alcotest.test_case "sink: lossless log" `Quick test_sink_lossless;
    Alcotest.test_case "sink: jsonl serialization" `Quick test_sink_jsonl;
    Alcotest.test_case "checker catches vc regression" `Quick
      test_checker_catches_vc_regression;
    Alcotest.test_case "checker catches stale readable page" `Quick
      test_checker_catches_stale_read;
    Alcotest.test_case "checker catches unserviced fault" `Quick
      test_checker_catches_unserviced_fault;
    Alcotest.test_case "checker catches future notice" `Quick
      test_checker_catches_future_notice;
    Alcotest.test_case "checker catches out-of-order apply" `Quick
      test_checker_catches_out_of_order_apply;
    Alcotest.test_case "checker accepts clean trace" `Quick
      test_checker_accepts_clean_trace;
    Alcotest.test_case "home events: json round-trip" `Quick
      test_home_events_json_roundtrip;
    Alcotest.test_case "inval events: json round-trip" `Quick
      test_inval_events_json_roundtrip;
    Alcotest.test_case "parse_line classifies lines" `Quick
      test_parse_line_variants;
    Alcotest.test_case "load_jsonl skips unknown kinds" `Quick
      test_load_jsonl_unknown_kind;
    Alcotest.test_case "load_jsonl tolerates torn final line" `Quick
      test_load_jsonl_truncated;
    Alcotest.test_case "load_jsonl round-trips clean files" `Quick
      test_load_jsonl_roundtrip;
    Alcotest.test_case "checker catches redundant invalidation" `Quick
      test_checker_catches_redundant_inval;
    Alcotest.test_case "checker catches unrequested inval ack" `Quick
      test_checker_catches_unrequested_ack;
    Alcotest.test_case "checker catches unacked invalidation" `Quick
      test_checker_catches_unacked_inval;
    Alcotest.test_case "checker catches stale exclusive writer" `Quick
      test_checker_catches_stale_writer;
    Alcotest.test_case "checker catches moving home" `Quick
      test_checker_catches_moving_home;
    Alcotest.test_case "checker catches self flush" `Quick
      test_checker_catches_self_flush;
    Alcotest.test_case "checker catches future flush" `Quick
      test_checker_catches_future_flush;
    Alcotest.test_case "checker catches repeated flush" `Quick
      test_checker_catches_repeated_flush;
    Alcotest.test_case "checker catches nonempty self fetch" `Quick
      test_checker_catches_nonempty_self_fetch;
    Alcotest.test_case "checker catches empty remote fetch" `Quick
      test_checker_catches_empty_remote_fetch;
    Alcotest.test_case "checker catches fetch from behind home" `Quick
      test_checker_catches_behind_home;
    Alcotest.test_case "checker accepts clean hlrc trace" `Quick
      test_checker_accepts_clean_hlrc_trace;
    Alcotest.test_case "per-phase summaries" `Quick test_phases;
    Alcotest.test_case "wsync table bounded" `Quick test_wsync_table_bounded;
    Alcotest.test_case "lock grants follow arrival order" `Quick
      test_lock_fifo_staged;
    Alcotest.test_case "contended lock: 8 procs x 100" `Quick
      test_lock_contention;
    Alcotest.test_case "engine: fiber failure discontinues siblings" `Quick
      test_engine_proc_failure;
    Alcotest.test_case "tmk: failure mid-barrier" `Quick
      test_tmk_failure_mid_barrier;
    Alcotest.test_case "repeated runs: identical trace" `Slow
      test_trace_repeatable;
    Alcotest.test_case "load_jsonl warns on a glued line" `Quick
      test_load_jsonl_glued_line;
    Alcotest.test_case "every event kind: json round-trip" `Quick
      test_every_kind_roundtrip;
    Alcotest.test_case "recheck: processor count from the trace" `Quick
      test_recheck_procs_from_trace;
    Alcotest.test_case "checker: fft3d with idle processors" `Quick
      (check_idle_procs (module Dsm_apps.Fft3d) Dsm_apps.Fft3d.small
         ~nprocs:18);
    Alcotest.test_case "checker: shallow with idle processors" `Quick
      (check_idle_procs
         (module Dsm_apps.Shallow)
         { Dsm_apps.Shallow.small with m = 16; n = 8; steps = 2 }
         ~nprocs:10);
    Alcotest.test_case "parse_line: non-integers name the field" `Quick
      test_parse_line_rejects_non_integers;
    QCheck_alcotest.to_alcotest prop_parse_line_mutations;
    QCheck_alcotest.to_alcotest prop_parse_line_bytes;
  ]
