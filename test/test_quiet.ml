(* Quiet pages: the receiver's lazy application of write notices.

   A notice for a page the processor already holds invalid only marks the
   page pending; its [known] watermarks are folded in from the interval
   logs when the page is next used. Two kinds of test: the state
   invariant after whole kernel runs (every quiet page is invalid, has
   metadata, has no pending lazy diff and is outside object regions), and
   targeted programs checking that each way back into a page — a fault, a
   READ validate, a push revalidation, a checkpoint — sees the folded
   watermarks. *)

module Config = Dsm_sim.Config
module Stats = Dsm_sim.Stats
module Tmk = Dsm_tmk.Tmk
module Shm = Dsm_tmk.Shm
module Protocol = Dsm_tmk.Protocol
module Types = Dsm_tmk.Types
module Wmap = Dsm_util.Wmap
module Page_table = Dsm_mem.Page_table
module Page_map = Dsm_mem.Page_map
open Dsm_apps.App_common

(* {1 The invariant} *)

(* Check every processor's quiet pages; returns how many there were. *)
let check_quiet ~name (sys : Tmk.system) =
  let total = ref 0 in
  Array.iteri
    (fun p (st : Types.pstate) ->
      List.iter
        (fun page ->
          incr total;
          let where = Printf.sprintf "%s: p%d page %d" name p page in
          (match Page_table.find st.Types.pt page with
          | Some pg when pg.Page_table.prot = Page_table.No_access -> ()
          | _ -> Alcotest.failf "%s is quiet but not No_access" where);
          (match Page_map.find st.Types.meta page with
          | Some m ->
              if m.Types.lazy_hi <> 0 then
                Alcotest.failf "%s is quiet with lazy_hi %d" where
                  m.Types.lazy_hi
          | None -> Alcotest.failf "%s is quiet without metadata" where);
          if Protocol.obj_size sys page > 0 then
            Alcotest.failf "%s is quiet inside an object region" where)
        (Protocol.quiet_pages st))
    sys.Types.states;
  !total

let last l = List.fold_left (fun _ x -> x) (List.hd l) l

(* Six kernels x four backends x {Base, deepest level asynchronous} at 4
   and 8 processors. *)
let invariant_matrix () =
  let seen = ref 0 in
  List.iter
    (fun (case : Test_backends.case) ->
      List.iter
        (fun backend ->
          List.iter
            (fun nprocs ->
              List.iter
                (fun (level, async) ->
                  let name =
                    Printf.sprintf "%s %s %s p%d%s" case.app
                      (Config.backend_name backend) (opt_level_name level)
                      nprocs
                      (if async then " async" else "")
                  in
                  let r =
                    let inspect sys = seen := !seen + check_quiet ~name sys in
                    case.run ~inspect
                      (Test_backends.cfg backend nprocs)
                      ~level ~async
                  in
                  Alcotest.(check (float 1e-6)) (name ^ " verified") 0.0
                    r.max_err)
                [ (Base, false); (last case.levels, true) ])
            [ 4; 8 ])
        [ Config.Lrc; Config.Hlrc; Config.Inval; Config.Adaptive ])
    Test_backends.cases;
  Alcotest.(check bool) "some page was quiet at the end of a run" true
    (!seen > 0)

(* A crash wipes the node's state bytes with its metadata; the restart
   rebuilds from the checkpoint and pages become quiet again. *)
let invariant_crash () =
  let cfg =
    {
      Config.default with
      Config.nprocs = 8;
      backend = Config.Hlrc;
      replicas = 3;
      ckpt_every = 2;
      crash = [ (1, 20000.0, 5000.0) ];
    }
  in
  let crashes = ref 0 in
  let r =
    Dsm_apps.Gauss.tmk ~digest:true
      ~inspect:(fun sys ->
        ignore (check_quiet ~name:"gauss hlrc k=3 crash" sys);
        crashes := (Tmk.total_stats sys).Stats.crashes)
      cfg ~size:Test_backends.gauss_prm ~behavior:() ~level:Base ~async:false
  in
  Alcotest.(check (float 1e-6)) "verified" 0.0 r.max_err;
  Alcotest.(check int) "the scheduled crash happened" 1 !crashes

(* {1 Targeted folds}

   Three processors; p0 writes page A in two barrier epochs (intervals 1
   and 2) while p1 leaves A alone, and p2 writes a page of its own. The
   first notice invalidates p1's copy, which turns quiet; the second only
   marks it pending. p1's next access must see the second epoch's value
   and fold [known(p0)] to 2. *)

let page_size = 256
let words = page_size / 8

type prog = {
  sys : Tmk.system;
  a : Dsm_rsd.Section.array_info;
  page_a : int;
}

let prog ?(cfg = { Config.default with Config.nprocs = 3; page_size }) () =
  let sys = Tmk.make cfg in
  let a = Tmk.Alloc.array sys "a" ~dims:[ 3 * words ] in
  { sys; a; page_a = a.Dsm_rsd.Section.base / page_size }

(* The two write epochs; on return p1's page A is pending. *)
let two_epochs g t =
  let p = Tmk.pid t in
  if p = 0 then Shm.F64_1.set t g.a 0 1.0;
  if p = 2 then Shm.F64_1.set t g.a (2 * words) 10.0;
  Tmk.barrier t;
  if p = 0 then Shm.F64_1.set t g.a 0 2.0;
  if p = 2 then Shm.F64_1.set t g.a (2 * words) 20.0;
  Tmk.barrier t

(* p1's view of page A before its access: quiet, with [known(p0)] still
   at the first interval (the second notice is not folded yet). *)
let check_pending g st =
  Alcotest.(check bool) "A quiet before the access" true
    (List.mem g.page_a (Protocol.quiet_pages st));
  match Page_map.find st.Types.meta g.page_a with
  | Some m ->
      Alcotest.(check int) "known(p0) not folded yet" 1
        (Wmap.get m.Types.known 0)
  | None -> Alcotest.fail "A has no metadata"

let check_folded g st =
  Alcotest.(check bool) "A eager after the access" false
    (List.mem g.page_a (Protocol.quiet_pages st));
  Alcotest.(check int) "known(p0) is the second interval" 2
    (Wmap.get (Protocol.meta st g.page_a).Types.known 0)

let fold_on access () =
  let g = prog () in
  let seen = ref nan in
  Tmk.run g.sys (fun t ->
      two_epochs g t;
      if Tmk.pid t = 1 then begin
        let st = g.sys.Types.states.(1) in
        check_pending g st;
        (match access with
        | `Fault -> ()
        | `Validate ->
            Tmk.validate t
              [ Shm.F64_1.section g.a (0, words - 1, 1) ]
              Tmk.Read);
        let faults = (Tmk.stats g.sys).(1).Stats.segv in
        seen := Shm.F64_1.get t g.a 0;
        Alcotest.(check int)
          "a fault only when nothing else brought A back"
          (if access = `Fault then faults + 1 else faults)
          (Tmk.stats g.sys).(1).Stats.segv;
        check_folded g st
      end);
  Alcotest.(check (float 0.0)) "p1 reads the second epoch" 2.0 !seen

(* A push from p0 covering A revalidates p1's pending copy in place. *)
let fold_on_push () =
  let g = prog () in
  let none = [] in
  let read_sections =
    [| none; [ Shm.F64_1.section g.a (0, words - 1, 1) ]; none |]
  and write_sections =
    [| [ Shm.F64_1.section g.a (0, words - 1, 1) ]; none; none |]
  in
  let seen = ref nan in
  Tmk.run g.sys (fun t ->
      two_epochs g t;
      if Tmk.pid t = 1 then check_pending g g.sys.Types.states.(1);
      Tmk.push t ~read_sections ~write_sections;
      if Tmk.pid t = 1 then begin
        let st = g.sys.Types.states.(1) in
        let faults = (Tmk.stats g.sys).(1).Stats.segv in
        seen := Shm.F64_1.get t g.a 0;
        Alcotest.(check int) "the pushed copy is readable" faults
          (Tmk.stats g.sys).(1).Stats.segv;
        check_folded g st
      end);
  Alcotest.(check (float 0.0)) "p1 reads the second epoch" 2.0 !seen

(* A checkpoint taken while A is pending records the folded watermark.
   Cyclic homes put A's home on p2, so p1 holds a plain cached copy. *)
let fold_on_checkpoint () =
  let cfg =
    {
      Config.default with
      Config.nprocs = 3;
      page_size;
      backend = Config.Hlrc;
      home_policy = Config.Home_cyclic;
      ckpt_every = 1;
    }
  in
  let sys = Tmk.make cfg in
  let a = Tmk.Alloc.array sys "a" ~dims:[ 3 * words ] in
  let first = a.Dsm_rsd.Section.base / page_size in
  (* the array's page homed on p2, and an element on it *)
  let k = (2 - (first mod 3) + 3) mod 3 in
  let g = { sys; a; page_a = first + k } in
  let known_at_ckpt = ref [] in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      if p = 0 then Shm.F64_1.set t a (k * words) 1.0;
      Tmk.barrier t;
      if p = 0 then Shm.F64_1.set t a (k * words) 2.0;
      Tmk.barrier t;
      if p = 1 then check_pending g sys.Types.states.(1);
      (* arrival takes the checkpoint *)
      Tmk.barrier t;
      if p = 1 then begin
        let ck = Dsm_ft.Ft.latest_ckpt sys.Types.ft 1 in
        known_at_ckpt :=
          Option.value ~default:[]
            (Hashtbl.find_opt ck.Dsm_ft.Ft.ck_known g.page_a)
      end);
  Alcotest.(check bool) "the checkpoint holds known(p0) = 2" true
    (List.mem (0, 2) !known_at_ckpt)

(* Under the adaptive backend, A's single reader-writer p0 makes it an
   invalidate-protocol page owned by p0 at the end of the first
   classification window, while p1's invalidated copy is still quiet.
   p1's write then takes the exclusive grant of the directory protocol,
   which must make the page eager again. *)
let fold_on_exclusive_grant () =
  let cfg = { (Test_backends.cfg Config.Adaptive 3) with page_size } in
  let g = prog ~cfg () in
  let seen = ref nan in
  Tmk.run g.sys (fun t ->
      two_epochs g t;
      if Tmk.pid t = 1 then begin
        let st = g.sys.Types.states.(1) in
        Alcotest.(check bool) "A is an invalidate-protocol page" true
          (Dsm_tmk.Fetch.proto_of g.sys g.page_a = Types.P_inval);
        Alcotest.(check bool) "A quiet before the write" true
          (List.mem g.page_a (Protocol.quiet_pages st));
        Shm.F64_1.set t g.a 1 5.0;
        seen := Shm.F64_1.get t g.a 0;
        Alcotest.(check bool) "A eager after the write" false
          (List.mem g.page_a (Protocol.quiet_pages st));
        ignore (check_quiet ~name:"exclusive grant" g.sys)
      end);
  Alcotest.(check (float 0.0)) "p1 reads the second epoch" 2.0 !seen

(* The owner of an invalidate-protocol page is its window's only
   writer, so it normally touched the page and made it eager. A push
   counts its write sections as writes without touching them: p0, whose
   copy of A went quiet on p1's and p2's notices in the first window,
   pushes A in the second and becomes the owner at its end. Installing
   the owner's copy must make the page eager again. *)
let fold_on_install () =
  let cfg = { (Test_backends.cfg Config.Adaptive 3) with page_size } in
  let g = prog ~cfg () in
  let none = [] in
  let read_sections = [| none; none; none |]
  and write_sections =
    [| [ Shm.F64_1.section g.a (0, words - 1, 1) ]; none; none |]
  in
  Tmk.run g.sys (fun t ->
      let p = Tmk.pid t in
      if p > 0 then Shm.F64_1.set t g.a p (float_of_int p);
      Tmk.barrier t;
      Tmk.barrier t;
      if p = 0 then
        Alcotest.(check bool) "A quiet at p0 before the switch" true
          (List.mem g.page_a (Protocol.quiet_pages g.sys.Types.states.(0)));
      Tmk.push t ~read_sections ~write_sections;
      Tmk.barrier t;
      Tmk.barrier t;
      if p = 0 then begin
        Alcotest.(check bool) "A is an invalidate-protocol page" true
          (Dsm_tmk.Fetch.proto_of g.sys g.page_a = Types.P_inval);
        Alcotest.(check bool) "A eager at its new owner" false
          (List.mem g.page_a (Protocol.quiet_pages g.sys.Types.states.(0)));
        ignore (check_quiet ~name:"install" g.sys)
      end)

let tests =
  [
    Alcotest.test_case "invariant: kernels x backends" `Quick invariant_matrix;
    Alcotest.test_case "invariant: hlrc k=3 crash" `Quick invariant_crash;
    Alcotest.test_case "fold on a fault" `Quick (fold_on `Fault);
    Alcotest.test_case "fold on a READ validate" `Quick (fold_on `Validate);
    Alcotest.test_case "fold on a push revalidation" `Quick fold_on_push;
    Alcotest.test_case "fold before a checkpoint" `Quick fold_on_checkpoint;
    Alcotest.test_case "fold on an exclusive grant" `Quick
      fold_on_exclusive_grant;
    Alcotest.test_case "fold on an install" `Quick fold_on_install;
  ]
