(* Property-based tests of the run-time itself: the protocol must agree
   with a simple sequential model for arbitrary data-race-free programs,
   independently of page size, fetch mode or the use of Push. *)

module Tmk = Dsm_tmk.Tmk
module Shm = Dsm_tmk.Shm
module Config = Dsm_sim.Config

let nprocs = 4

(* {1 Random barrier-synchronized DRF programs}

   [plan.(epoch).(slot)] gives the writing processor and value for each
   shared slot in each epoch (single writer per slot per epoch => data-race
   free). Every processor reads every slot at the end; the result must
   equal the last write of each slot. *)

type plan = (int * float) array array

let gen_plan =
  QCheck.Gen.(
    let slot = pair (int_bound (nprocs - 1)) (map float_of_int (int_bound 999)) in
    array_size (int_range 1 5) (array_size (return 24) slot))

let print_plan p =
  String.concat "|"
    (Array.to_list
       (Array.map
          (fun epoch ->
            String.concat ","
              (Array.to_list (Array.map (fun (w, v) -> Printf.sprintf "%d:%.0f" w v) epoch)))
          p))

let run_plan ?(page_size = 64) ?(validate = false) (plan : plan) =
  let cfg = { Config.default with Config.nprocs; page_size } in
  let sys = Tmk.make cfg in
  let nslots = Array.length plan.(0) in
  let a = Tmk.Alloc.array sys "a" ~dims:[ nslots ] in
  let out = Array.make_matrix nprocs nslots 0.0 in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      Array.iter
        (fun epoch ->
          Array.iteri
            (fun slot (writer, v) ->
              if writer = p then Shm.F64_1.set t a slot v)
            epoch;
          Tmk.barrier t)
        plan;
      if validate then
        Tmk.validate t [ Shm.F64_1.section a (0, nslots - 1, 1) ] Tmk.Read;
      for slot = 0 to nslots - 1 do
        out.(p).(slot) <- Shm.F64_1.get t a slot
      done);
  out

let model (plan : plan) =
  let nslots = Array.length plan.(0) in
  let m = Array.make nslots 0.0 in
  Array.iter (fun epoch -> Array.iteri (fun s (_, v) -> m.(s) <- v) epoch) plan;
  m

let agrees out m =
  Array.for_all (fun row -> Array.for_all2 (fun a b -> a = b) row m) out

let prop_drf =
  QCheck.Test.make ~count:100 ~name:"random DRF programs match the model"
    (QCheck.make ~print:print_plan gen_plan) (fun plan ->
      agrees (run_plan plan) (model plan))

let prop_page_size_independent =
  QCheck.Test.make ~count:60
    ~name:"results independent of page size (values, not times)"
    (QCheck.make ~print:print_plan gen_plan) (fun plan ->
      let m = model plan in
      List.for_all
        (fun ps -> agrees (run_plan ~page_size:ps plan) m)
        [ 32; 64; 256 ])

let prop_validate_same =
  QCheck.Test.make ~count:60 ~name:"aggregated Validate changes no values"
    (QCheck.make ~print:print_plan gen_plan) (fun plan ->
      agrees (run_plan ~validate:true plan) (model plan))

(* {1 Push vs barrier equivalence}

   A two-phase exchange over a random block partition: the Push version
   must produce exactly the barrier version's data. *)

let gen_widths =
  QCheck.Gen.(array_size (return nprocs) (int_range 1 4))

let run_exchange ~push widths =
  let cfg = { Config.default with Config.nprocs; page_size = 64 } in
  let sys = Tmk.make cfg in
  let bounds = Array.make nprocs (0, 0) in
  let total = ref 0 in
  Array.iteri
    (fun p w ->
      bounds.(p) <- (!total * 8, ((!total + w) * 8) - 1);
      total := !total + w)
    widths;
  let n = !total * 8 in
  let a = Tmk.Alloc.array sys "a" ~dims:[ n ] in
  let read_sections =
    Array.init nprocs (fun q ->
        let lo, hi = bounds.(q) in
        [ Shm.F64_1.section a (max 0 (lo - 1), min (n - 1) (hi + 1), 1) ])
  and write_sections =
    Array.init nprocs (fun q ->
        let lo, hi = bounds.(q) in
        [ Shm.F64_1.section a (lo, hi, 1) ])
  in
  let out = Array.make nprocs (0.0, 0.0) in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      let lo, hi = bounds.(p) in
      for k = lo to hi do
        Shm.F64_1.set t a k (float_of_int ((k * 7) + 3))
      done;
      if push then Tmk.push t ~read_sections ~write_sections
      else Tmk.barrier t;
      let left = if lo > 0 then Shm.F64_1.get t a (lo - 1) else -1.0 in
      let right = if hi < n - 1 then Shm.F64_1.get t a (hi + 1) else -1.0 in
      out.(p) <- (left, right));
  out

let prop_push_equiv =
  QCheck.Test.make ~count:80 ~name:"Push = barrier for boundary exchanges"
    (QCheck.make
       ~print:(fun w ->
         String.concat "," (Array.to_list (Array.map string_of_int w)))
       gen_widths) (fun widths ->
      run_exchange ~push:true widths = run_exchange ~push:false widths)

(* {1 Regression: interval-spanning diff ordering}

   A concrete plan that once produced stale values at page size 32: writer
   0's accumulated diff spanned two epochs while writer 1 overwrote two of
   its slots in the second; the span must be applied at its head position
   (and supersede pruning must ignore accidentally page-covering twin
   diffs). *)

let regression_plan : plan =
  let parse s =
    String.split_on_char '|' s
    |> List.map (fun ep ->
           String.split_on_char ',' ep
           |> List.map (fun x ->
                  match String.split_on_char ':' x with
                  | [ w; v ] -> (int_of_string w, float_of_string v)
                  | _ -> assert false)
           |> Array.of_list)
    |> Array.of_list
  in
  parse
    "2:749,3:621,1:624,3:296,0:602,3:471,3:834,3:843,2:121,1:658,1:924,1:928,1:530,0:246,0:475,1:673,2:199,1:481,1:560,1:9,2:236,3:151,3:744,0:675|2:360,1:818,1:890,1:89,3:138,3:164,2:250,2:130,2:504,3:449,3:14,1:529,1:676,0:233,3:381,2:287,3:853,3:351,3:432,3:8,0:989,0:256,0:462,0:464|3:788,1:722,1:723,0:207,1:116,1:607,0:225,1:607,3:279,1:291,2:329,0:788,0:897,2:904,0:262,0:529,0:411,3:104,1:768,1:532,0:625,0:340,1:822,1:626"

let test_span_ordering_regression () =
  let m = model regression_plan in
  List.iter
    (fun ps ->
      Alcotest.(check bool)
        (Printf.sprintf "page size %d" ps)
        true
        (agrees (run_plan ~page_size:ps regression_plan) m))
    [ 32; 64; 256 ]

(* {1 Determinism} *)

let prop_deterministic =
  QCheck.Test.make ~count:40 ~name:"virtual times are deterministic"
    (QCheck.make ~print:print_plan gen_plan) (fun plan ->
      let t1 =
        let cfg = { Config.default with Config.nprocs } in
        let sys = Tmk.make cfg in
        let a = Tmk.Alloc.array sys "a" ~dims:[ 24 ] in
        Tmk.run sys (fun t ->
            Array.iter
              (fun epoch ->
                Array.iteri
                  (fun slot (w, v) -> if w = Tmk.pid t then Shm.F64_1.set t a slot v)
                  epoch;
                Tmk.barrier t)
              plan);
        Tmk.elapsed sys
      in
      let t2 =
        let cfg = { Config.default with Config.nprocs } in
        let sys = Tmk.make cfg in
        let a = Tmk.Alloc.array sys "a" ~dims:[ 24 ] in
        Tmk.run sys (fun t ->
            Array.iter
              (fun epoch ->
                Array.iteri
                  (fun slot (w, v) -> if w = Tmk.pid t then Shm.F64_1.set t a slot v)
                  epoch;
                Tmk.barrier t)
              plan);
        Tmk.elapsed sys
      in
      t1 = t2)

let tests =
  Alcotest.test_case "span ordering regression" `Quick
    test_span_ordering_regression
  :: List.map QCheck_alcotest.to_alcotest
       [
         prop_drf;
         prop_page_size_independent;
         prop_validate_same;
         prop_push_equiv;
         prop_deterministic;
       ]
