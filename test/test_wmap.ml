(* Model test of the sparse watermark map: random operation sequences run
   against a sorted association-list reference, checking every query,
   the ascending visit order, the two-map comparisons, and that a
   [to_pairs] snapshot is immune to later updates. *)

module Wmap = Dsm_util.Wmap

(* {1 Reference model: ascending (key, value) list, absent = 0} *)

let model_set l k v = List.sort compare ((k, v) :: List.remove_assoc k l)
let model_get l k = Option.value ~default:0 (List.assoc_opt k l)
let model_of ops = List.fold_left (fun l (k, v) -> model_set l k v) [] ops

let build ops =
  let m = Wmap.create () in
  List.iter (fun (k, v) -> Wmap.set m k v) ops;
  m

let visited m =
  let acc = ref [] in
  Wmap.iter (fun k v -> acc := (k, v) :: !acc) m;
  List.rev !acc

(* keys span past the largest key so absent lookups at both ends and in
   the gaps are exercised *)
let max_key = 63
let probe_keys = List.init (max_key + 3) (fun i -> i - 1)

(* values include 0, so an explicit 0 entry must stay distinct from an
   absent key *)
let gen_ops =
  QCheck.Gen.(
    list_size (int_range 0 100) (pair (int_bound max_key) (int_bound 5)))

let print_ops ops =
  String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%d=%d" k v) ops)

let arb_ops = QCheck.make ~print:print_ops gen_ops

let arb_two =
  QCheck.make
    ~print:(fun (a, b) -> print_ops a ^ " | " ^ print_ops b)
    QCheck.Gen.(pair gen_ops gen_ops)

let agrees m l =
  List.for_all
    (fun k ->
      Wmap.get m k = model_get l k && Wmap.find_opt m k = List.assoc_opt k l)
    probe_keys
  && visited m = l
  && Wmap.to_pairs m = l
  && Wmap.keys m = List.map fst l

let prop_queries =
  QCheck.Test.make ~count:300 ~name:"get/find_opt/iter/keys match the model"
    arb_ops (fun ops ->
      (* check after every update, not only at the end *)
      let m = Wmap.create () in
      let _, ok =
        List.fold_left
          (fun (l, ok) (k, v) ->
            Wmap.set m k v;
            let l = model_set l k v in
            (l, ok && agrees m l))
          ([], agrees m []) ops
      in
      ok)

let prop_exists =
  QCheck.Test.make ~count:300 ~name:"exists matches the model" arb_ops
    (fun ops ->
      let m = build ops and l = model_of ops in
      List.for_all
        (fun (kmin, vmin) ->
          let f k v = k >= kmin && v >= vmin in
          Wmap.exists f m = List.exists (fun (k, v) -> f k v) l)
        [ (0, 0); (10, 3); (32, 1); (60, 5); (64, 0); (0, 6) ])

let prop_pairwise =
  QCheck.Test.make ~count:500
    ~name:"union_keys/dominates/exists_gt match the model" arb_two
    (fun (oa, ob) ->
      let a = build oa and b = build ob in
      let la = model_of oa and lb = model_of ob in
      let all f = List.for_all f probe_keys
      and any f = List.exists f probe_keys in
      Wmap.union_keys a b
      = List.sort_uniq compare (List.map fst la @ List.map fst lb)
      && Wmap.dominates a b = all (fun k -> model_get la k >= model_get lb k)
      && Wmap.dominates b a = all (fun k -> model_get lb k >= model_get la k)
      && Wmap.exists_gt a b = any (fun k -> model_get la k > model_get lb k)
      && Wmap.exists_gt b a = any (fun k -> model_get lb k > model_get la k))

(* [iter_above]'s merge walk against the scan it replaces: [iter] over
   [a] with a [get] of [b] per key *)
let prop_iter_above =
  QCheck.Test.make ~count:500 ~name:"iter_above = iter filtered by get" arb_two
    (fun (oa, ob) ->
      let a = build oa and b = build ob in
      let walked = ref [] and scanned = ref [] in
      Wmap.iter_above (fun k va vb -> walked := (k, va, vb) :: !walked) a b;
      Wmap.iter
        (fun k va ->
          let vb = Wmap.get b k in
          if va > vb then scanned := (k, va, vb) :: !scanned)
        a;
      !walked = !scanned)

(* [dominates] over a map and a pointwise-lowered copy of it, padded with
   explicit 0 entries at keys the map lacks: the random pairs above rarely
   dominate, so cover the true case — with the merge walk skipping absent
   keys — directly *)
let prop_dominates_lowered =
  QCheck.Test.make ~count:300
    ~name:"a map dominates its lowered, padded copy" arb_two (fun (oa, pad) ->
      let a = build oa in
      let lb =
        List.fold_left
          (fun l (k, _) -> if List.mem_assoc k l then l else model_set l k 0)
          (List.map (fun (k, v) -> (k, v / 2)) (Wmap.to_pairs a))
          pad
      in
      let b = Wmap.of_pairs lb and la = Wmap.to_pairs a in
      Wmap.dominates a b && Wmap.dominates a a
      && (not (Wmap.exists_gt a a))
      && (not (Wmap.exists_gt b a))
      && Wmap.exists_gt a b = List.exists (fun (_, v) -> v > v / 2) la
      && Wmap.dominates b a = List.for_all (fun (_, v) -> v = 0) la)

let prop_snapshot =
  QCheck.Test.make ~count:300
    ~name:"of_pairs (to_pairs m) round-trips; snapshots are immutable"
    (QCheck.make
       ~print:(fun (a, b) -> print_ops a ^ " then " ^ print_ops b)
       QCheck.Gen.(pair gen_ops gen_ops))
    (fun (before, after) ->
      let m = build before in
      let snap = Wmap.to_pairs m in
      let l = model_of before in
      let copy = Wmap.of_pairs snap in
      (* updates to the original (new keys and overwrites alike) and to
         the copy must not show through the snapshot *)
      List.iter (fun (k, v) -> Wmap.set m k (v + 1)) (before @ after);
      List.iter (fun (k, v) -> Wmap.set copy k (v + 7)) after;
      snap = l && agrees (Wmap.of_pairs snap) l)

(* Front, back and middle insertion through several capacity doublings. *)
let test_insert_positions () =
  let n = 40 in
  let check name ks =
    let m = Wmap.create () in
    List.iter (fun k -> Wmap.set m k (k + 1)) ks;
    let l = List.init n (fun k -> (k, k + 1)) in
    Alcotest.(check (list (pair int int))) name l (visited m);
    Alcotest.(check int) (name ^ ": absent") 0 (Wmap.get m n)
  in
  check "ascending (back)" (List.init n Fun.id);
  check "descending (front)" (List.init n (fun i -> n - 1 - i));
  check "outside in (middle)"
    (List.init n (fun i -> if i mod 2 = 0 then i / 2 else n - 1 - (i / 2)));
  let m = Wmap.create () in
  Wmap.set m 5 0;
  Alcotest.(check (option int)) "explicit 0 is present" (Some 0)
    (Wmap.find_opt m 5);
  Alcotest.(check (option int)) "absent is None" None (Wmap.find_opt m 4);
  Alcotest.(check int) "explicit 0 reads 0" 0 (Wmap.get m 5)

let tests =
  Alcotest.test_case "insert at front/middle/back past capacity" `Quick
    test_insert_positions
  :: List.map QCheck_alcotest.to_alcotest
       [
         prop_queries;
         prop_exists;
         prop_pairwise;
         prop_iter_above;
         prop_dominates_lowered;
         prop_snapshot;
       ]
