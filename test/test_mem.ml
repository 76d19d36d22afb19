(* Diffs, the address space, sections and page tables. *)

module Diff = Dsm_mem.Diff
module Addr_space = Dsm_mem.Addr_space
module Page_table = Dsm_mem.Page_table
module Page_map = Dsm_mem.Page_map
module Section = Dsm_rsd.Section
module Rsd = Dsm_rsd.Rsd
module Range = Dsm_rsd.Range

let page_size = 256

let test_diff_roundtrip () =
  let twin = Bytes.init page_size (fun i -> Char.chr (i mod 251)) in
  let current = Bytes.copy twin in
  Bytes.set current 10 'x';
  Bytes.set current 100 'y';
  Bytes.set current 101 'z';
  let d = Diff.create ~twin ~current in
  let dst = Bytes.copy twin in
  Diff.apply d dst;
  Alcotest.(check bool) "roundtrip" true (Bytes.equal dst current);
  Alcotest.(check bool) "nonempty" false (Diff.is_empty d)

let test_diff_word_granularity () =
  let twin = Bytes.make page_size 'a' in
  let current = Bytes.copy twin in
  Bytes.set current 17 'b' (* one byte changed -> whole 4-byte word in diff *);
  let d = Diff.create ~twin ~current in
  Alcotest.(check int) "word granularity" 4 (Diff.size_bytes d)

let test_diff_empty () =
  let twin = Bytes.make page_size 'q' in
  let d = Diff.create ~twin ~current:(Bytes.copy twin) in
  Alcotest.(check bool) "empty" true (Diff.is_empty d);
  Alcotest.(check int) "no bytes" 0 (Diff.size_bytes d)

let test_diff_full_and_range () =
  let page = Bytes.init page_size (fun i -> Char.chr (i mod 256)) in
  let f = Diff.full page in
  Alcotest.(check bool) "covers page" true (Diff.covers_page f ~page_size);
  Alcotest.(check int) "full size" page_size (Diff.size_bytes f);
  let r = Diff.of_range page ~off:16 ~len:32 in
  Alcotest.(check bool) "partial not covering" false
    (Diff.covers_page r ~page_size);
  let dst = Bytes.make page_size '\000' in
  Diff.apply r dst;
  Alcotest.(check char) "inside" (Bytes.get page 20) (Bytes.get dst 20);
  Alcotest.(check char) "outside untouched" '\000' (Bytes.get dst 8)

let test_diff_merge () =
  let base = Bytes.make page_size '\000' in
  let p1 = Bytes.copy base in
  Bytes.set p1 4 'a';
  let p2 = Bytes.copy base in
  Bytes.set p2 4 'b';
  Bytes.set p2 8 'c';
  let d1 = Diff.create ~twin:base ~current:p1 in
  let d2 = Diff.create ~twin:base ~current:p2 in
  let m = Diff.merge d1 d2 ~page_size in
  let dst = Bytes.copy base in
  Diff.apply m dst;
  Alcotest.(check char) "newer wins" 'b' (Bytes.get dst 4);
  Alcotest.(check char) "union" 'c' (Bytes.get dst 8)

(* qcheck: random mutations -> create/apply reconstructs *)
let qcheck_diff =
  let gen =
    QCheck.Gen.(list_size (int_bound 30) (pair (int_bound (page_size - 1)) char))
  in
  QCheck.Test.make ~count:300
    ~name:"diff create/apply reconstructs arbitrary mutations"
    (QCheck.make gen) (fun muts ->
      let twin = Bytes.init page_size (fun i -> Char.chr (i mod 199)) in
      let current = Bytes.copy twin in
      List.iter (fun (off, c) -> Bytes.set current off c) muts;
      let dst = Bytes.copy twin in
      Diff.apply (Diff.create ~twin ~current) dst;
      Bytes.equal dst current)

let qcheck_merge =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_bound 20) (pair (int_bound (page_size - 1)) char))
        (list_size (int_bound 20) (pair (int_bound (page_size - 1)) char)))
  in
  QCheck.Test.make ~count:300 ~name:"merge = apply older then newer"
    (QCheck.make gen) (fun (m1, m2) ->
      let base = Bytes.init page_size (fun i -> Char.chr (i mod 97)) in
      let c1 = Bytes.copy base in
      List.iter (fun (o, c) -> Bytes.set c1 o c) m1;
      let c2 = Bytes.copy base in
      List.iter (fun (o, c) -> Bytes.set c2 o c) m2;
      let d1 = Diff.create ~twin:base ~current:c1 in
      let d2 = Diff.create ~twin:base ~current:c2 in
      let seq = Bytes.copy base in
      Diff.apply d1 seq;
      Diff.apply d2 seq;
      let merged = Bytes.copy base in
      Diff.apply (Diff.merge d1 d2 ~page_size) merged;
      Bytes.equal seq merged)

let test_addr_space () =
  let sp = Addr_space.create ~page_size:4096 in
  let a = Addr_space.alloc sp ~name:"a" ~bytes:100 () in
  let b = Addr_space.alloc sp ~name:"b" ~bytes:100 () in
  Alcotest.(check int) "first at 0" 0 a;
  Alcotest.(check bool) "8-aligned" true (b mod 8 = 0);
  Alcotest.(check bool) "disjoint" true (b >= a + 100);
  let c = Addr_space.alloc sp ~name:"c" ~page_align:true ~bytes:10 () in
  Alcotest.(check int) "page aligned" 0 (c mod 4096);
  Alcotest.(check bool) "pages counted" true (Addr_space.n_pages sp >= 2)

let test_array_layout () =
  let sp = Addr_space.create ~page_size:4096 in
  let info = Addr_space.alloc_array sp ~name:"m" ~elem_size:8 [| 10; 5 |] in
  (* column-major: first index contiguous *)
  Alcotest.(check int) "addr (0,0)" info.Section.base
    (Section.addr_of_index info [| 0; 0 |]);
  Alcotest.(check int) "addr (1,0)" (info.Section.base + 8)
    (Section.addr_of_index info [| 1; 0 |]);
  Alcotest.(check int) "addr (0,1)" (info.Section.base + 80)
    (Section.addr_of_index info [| 0; 1 |])

let test_section_ranges () =
  let sp = Addr_space.create ~page_size:4096 in
  let info = Addr_space.alloc_array sp ~name:"m" ~elem_size:8 [| 16; 16 |] in
  (* whole columns merge into one contiguous run *)
  let s = Section.make info (Rsd.make [ (0, 15, 1); (2, 4, 1) ]) in
  let r = Section.ranges s in
  Alcotest.(check bool) "columns merge" true (Range.is_contiguous r);
  Alcotest.(check int) "bytes" (16 * 3 * 8) (Range.size r);
  (* a row is strided: 16 separate element runs *)
  let row = Section.make info (Rsd.make [ (3, 3, 1); (0, 15, 1) ]) in
  Alcotest.(check int) "row runs" 16 (List.length (Section.ranges row));
  Alcotest.(check bool) "row not contiguous" false (Section.is_contiguous row)

let test_section_inter () =
  let sp = Addr_space.create ~page_size:4096 in
  let info = Addr_space.alloc_array sp ~name:"m" ~elem_size:8 [| 8; 8 |] in
  let a = Section.make info (Rsd.make [ (0, 7, 1); (0, 3, 1) ]) in
  let b = Section.make info (Rsd.make [ (0, 7, 1); (2, 5, 1) ]) in
  Alcotest.(check int) "overlap bytes" (8 * 2 * 8)
    (Range.size (Section.inter_ranges a b))

let test_page_table () =
  let pt = Page_table.create ~page_size:128 in
  let pg = Page_table.get pt 5 in
  Alcotest.(check bool) "starts read-only" true
    (pg.Page_table.prot = Page_table.Read_only);
  Alcotest.(check bool) "zeroed" true
    (Bytes.for_all (fun c -> c = '\000') pg.Page_table.data);
  Alcotest.(check bool) "find existing" true (Page_table.find pt 5 <> None);
  Alcotest.(check bool) "find missing" true (Page_table.find pt 9999 = None);
  Page_table.make_twin pg;
  Alcotest.(check bool) "twin made" true (pg.Page_table.twin <> None);
  Bytes.set pg.Page_table.data 0 'x';
  (match pg.Page_table.twin with
  | Some twin ->
      Alcotest.(check char) "twin unchanged" '\000' (Bytes.get twin 0)
  | None -> Alcotest.fail "twin");
  Page_table.drop_twin pg;
  Alcotest.(check bool) "twin dropped" true (pg.Page_table.twin = None)

(* Demand-zero frames: a write-notice invalidation of a page the processor
   never held records protection only; data paths get a zero frame. *)
let test_page_table_frameless () =
  let pt = Page_table.create ~page_size:128 in
  Alcotest.(check bool) "absent page invalidated counts as accessible" true
    (Page_table.invalidate pt 7);
  Alcotest.(check (list int)) "protection-only entry allocates no frame" []
    (Page_table.frames pt);
  let rec_ = Option.get (Page_table.find pt 7) in
  Alcotest.(check int) "frameless record exists" 0
    (Bytes.length rec_.Page_table.data);
  Alcotest.(check bool) "frameless is never accessible" true
    (rec_.Page_table.prot = Page_table.No_access
    && (Page_table.entry pt 7).Page_table.prot = Page_table.No_access);
  Alcotest.(check (list int)) "entry keeps it frameless" []
    (Page_table.frames pt);
  Alcotest.(check bool) "second invalidation is a no-op" false
    (Page_table.invalidate pt 7);
  let pg = Page_table.get pt 7 in
  Alcotest.(check int) "get allocates a page-size frame" 128
    (Bytes.length pg.Page_table.data);
  Alcotest.(check bool) "zero-filled" true
    (Bytes.for_all (fun c -> c = '\000') pg.Page_table.data);
  Alcotest.(check bool) "get keeps the protection" true
    (pg.Page_table.prot = Page_table.No_access);
  Alcotest.(check (list int)) "frame counted" [ 7 ] (Page_table.frames pt);
  (* invalidating a page with a frame keeps its contents *)
  Bytes.set pg.Page_table.data 0 'x';
  pg.Page_table.prot <- Page_table.Read_only;
  Alcotest.(check bool) "valid page invalidated" true
    (Page_table.invalidate pt 7);
  Alcotest.(check char) "contents survive invalidation" 'x'
    (Bytes.get pg.Page_table.data 0);
  Page_table.make_twin pg;
  Page_table.drop_frame pg;
  Alcotest.(check bool) "dropped frame is inaccessible, twinless" true
    (pg.Page_table.prot = Page_table.No_access && pg.Page_table.twin = None);
  Alcotest.(check bool) "record survives the drop" true
    (Page_table.find pt 7 <> None);
  Alcotest.(check (list int)) "no frame after the drop" [] (Page_table.frames pt);
  Alcotest.(check char) "a re-got frame reads zero" '\000'
    (Bytes.get (Page_table.get pt 7).Page_table.data 0)

let test_page_map () =
  let t = Page_map.create () in
  Alcotest.(check bool) "find does not create" true (Page_map.find t 3 = None);
  Alcotest.(check int) "still empty" 0 (Page_map.length t);
  Alcotest.(check string) "created" "a" (Page_map.find_or_add t 3 (fun () -> "a"));
  Alcotest.(check string) "found, not re-created" "a"
    (Page_map.find_or_add t 3 (fun () -> "b"));
  ignore (Page_map.find_or_add t 1000 (fun () -> "c"));
  Alcotest.(check int) "exact count" 2 (Page_map.length t);
  let seen = ref [] in
  Page_map.iter (fun n v -> seen := (n, v) :: !seen) t;
  Alcotest.(check (list (pair int string))) "ascending iteration"
    [ (3, "a"); (1000, "c") ] (List.rev !seen);
  Page_map.reset t;
  Alcotest.(check int) "reset empties" 0 (Page_map.length t);
  Alcotest.(check bool) "reset forgets" true (Page_map.find t 1000 = None)

let tests =
  [
    Alcotest.test_case "diff roundtrip" `Quick test_diff_roundtrip;
    Alcotest.test_case "diff word granularity" `Quick test_diff_word_granularity;
    Alcotest.test_case "diff empty" `Quick test_diff_empty;
    Alcotest.test_case "diff full/range" `Quick test_diff_full_and_range;
    Alcotest.test_case "diff merge" `Quick test_diff_merge;
    Alcotest.test_case "addr space" `Quick test_addr_space;
    Alcotest.test_case "array layout" `Quick test_array_layout;
    Alcotest.test_case "section ranges" `Quick test_section_ranges;
    Alcotest.test_case "section inter" `Quick test_section_inter;
    Alcotest.test_case "page table" `Quick test_page_table;
    Alcotest.test_case "page table: frameless pages" `Quick
      test_page_table_frameless;
    Alcotest.test_case "page map" `Quick test_page_map;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ qcheck_diff; qcheck_merge ]
