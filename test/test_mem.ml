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
  let m = Diff.merge d1 d2 in
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
      Diff.apply (Diff.merge d1 d2) merged;
      Bytes.equal seq merged)

(* {2 [Diff.apply] against a [Bytes.blit] reference} *)

(* What [apply] must do: blit each segment's payload to its offset. *)
let blit_apply d dst =
  List.iter
    (fun (off, payload) ->
      Bytes.blit_string payload 0 dst off (String.length payload))
    (Diff.segments d)

(* A diff built one of four ways: [create] from word edits (runs of one
   word give 4-byte segments, of two words 8-byte ones, longer runs go
   through [Bytes.blit]); [of_range] at any offset and length (odd-length
   segments, and pieces that touch another diff's); [full]; or the
   [merge] of two such diffs, merges of merges included. *)
type diff_spec =
  | Edits of (int * int * char) list  (* word index, run length, fill *)
  | Span of int * int * char  (* offset, length, fill *)
  | Full of char
  | Merged of diff_spec * diff_spec

let rec build_diff twin = function
  | Edits edits ->
      let current = Bytes.copy twin in
      List.iter
        (fun (w, run, c) ->
          let off = 4 * w in
          let len = min (4 * run) (page_size - off) in
          Bytes.fill current off len c)
        edits;
      Diff.create ~twin ~current
  | Span (off, len, c) ->
      let page = Bytes.make page_size c in
      Diff.of_range page ~off ~len
  | Full c -> Diff.full (Bytes.make page_size c)
  | Merged (a, b) ->
      Diff.merge (build_diff twin a) (build_diff twin b)

let rec print_spec = function
  | Edits l ->
      "edits["
      ^ String.concat ";"
          (List.map (fun (w, r, c) -> Printf.sprintf "%d+%d=%C" w r c) l)
      ^ "]"
  | Span (o, l, c) -> Printf.sprintf "span(%d,%d,%C)" o l c
  | Full c -> Printf.sprintf "full(%C)" c
  | Merged (a, b) -> "merge(" ^ print_spec a ^ "," ^ print_spec b ^ ")"

let gen_spec =
  let open QCheck.Gen in
  let edits =
    map
      (fun l -> Edits l)
      (list_size (int_bound 24)
         (triple
            (int_bound ((page_size / 4) - 1))
            (frequency [ (4, return 1); (3, return 2); (1, int_range 3 9) ])
            (char_range 'a' 'z')))
  in
  let span =
    int_bound (page_size - 1) >>= fun off ->
    int_bound (page_size - off) >>= fun len ->
    map (fun c -> Span (off, len, c)) (char_range 'A' 'Z')
  in
  let leaf =
    frequency
      [ (3, edits); (2, span); (1, map (fun c -> Full c) (char_range '0' '9')) ]
  in
  int_bound 3
  >>= fix (fun self depth ->
          if depth = 0 then leaf
          else
            frequency
              [
                (1, leaf);
                ( 2,
                  map2
                    (fun a b -> Merged (a, b))
                    (self (depth - 1))
                    (self (depth - 1)) );
              ])

let qcheck_apply_ref =
  QCheck.Test.make ~count:500
    ~name:"apply = Bytes.blit reference on a copy and a twin"
    (QCheck.make ~print:print_spec gen_spec) (fun spec ->
      let twin = Bytes.init page_size (fun i -> Char.chr (i mod 113)) in
      let d = build_diff twin spec in
      (* the page copy and its twin, which differ before the apply *)
      let copy = Bytes.init page_size (fun i -> Char.chr ((i * 7) mod 256)) in
      let twin' = Bytes.copy twin in
      List.for_all
        (fun dst ->
          let expect = Bytes.copy dst in
          blit_apply d expect;
          Diff.apply d dst;
          Bytes.equal dst expect)
        [ copy; twin' ])

(* {2 [Diff.apply] checks a diff's bounds once}

   [apply] checks only the first offset and the last segment's end; the
   segment invariant of [diff.mli] (offsets from 0 up, each segment
   ending at or before the next one starts) makes that enough. Random
   diffs of every constructor, applied to random pages of random
   lengths, must write exactly the overlay of their [segments] when the
   last one ends inside the page, and otherwise raise and leave the page
   untouched. An [of_range] diff taken from a longer page, ending past
   the destination, is the case every overrun is made of. *)

let last_end d =
  List.fold_left
    (fun _ (off, payload) -> off + String.length payload)
    0 (Diff.segments d)

(* Offsets ascend, each segment ends at or before the next one starts. *)
let segments_ordered d =
  let rec go prev_end = function
    | [] -> true
    | (off, payload) :: rest ->
        off >= prev_end && go (off + String.length payload) rest
  in
  go 0 (Diff.segments d)

let apply_or_raise d dst =
  let before = Bytes.copy dst in
  let expect = Bytes.copy dst in
  if last_end d <= Bytes.length dst then begin
    blit_apply d expect;
    Diff.apply d dst;
    Bytes.equal dst expect
  end
  else
    match Diff.apply d dst with
    | () -> false
    | exception Invalid_argument _ -> Bytes.equal dst before

let qcheck_apply_bounds =
  let gen =
    QCheck.Gen.(
      quad gen_spec
        (string_size (return page_size))
        (int_range (page_size / 2) page_size)
        (pair (int_bound ((2 * page_size) - 1)) (int_range 1 page_size)))
  in
  let print (spec, _, dlen, (off, len)) =
    Printf.sprintf "%s on %d bytes; of_range(%d,%d)" (print_spec spec) dlen
      off len
  in
  QCheck.Test.make ~count:1000
    ~name:"apply checks bounds once: overlay of segments, or raise untouched"
    (QCheck.make ~print gen) (fun (spec, page, dlen, (off, len)) ->
      let twin = Bytes.of_string page in
      let d = build_diff twin spec in
      let dst = Bytes.init dlen (fun i -> Char.chr ((i * 31) mod 256)) in
      (* a slice of a page twice as long: ends past [dst] when
         [off + len > dlen] *)
      let long = Bytes.init (2 * page_size) (fun i -> Char.chr (i mod 251)) in
      let len = min len ((2 * page_size) - off) in
      let r = Diff.of_range long ~off ~len in
      segments_ordered d && segments_ordered r
      && apply_or_raise d dst
      && apply_or_raise d (Bytes.of_string page)
      && apply_or_raise r (Bytes.copy dst))

(* {2 Layout oracles}

   [Diff.covers_page] (a WRITE_ALL diff superseding older history) reads
   the segment layout, not just the bytes a diff writes, so [create] and
   [merge] are checked segment for segment against the simplest
   implementations: a word-at-a-time scan and a page-sized byte mask. *)

(* Maximal runs of changed 32-bit words. *)
let ref_create ~twin ~current =
  let words = Bytes.length current / 4 in
  let differs w = Bytes.sub twin (4 * w) 4 <> Bytes.sub current (4 * w) 4 in
  let rec runs w acc =
    if w >= words then List.rev acc
    else if not (differs w) then runs (w + 1) acc
    else
      let e = ref w in
      while !e < words && differs !e do
        incr e
      done;
      runs !e ((4 * w, Bytes.sub_string current (4 * w) (4 * (!e - w))) :: acc)
  in
  runs 0 []

(* Overlay [older] then [newer] onto a scratch page, marking each written
   byte, and read the marked bytes back as maximal runs. *)
let ref_merge older newer ~page_size =
  if older = [] then newer
  else if newer = [] then older
  else begin
    let scratch = Bytes.make page_size '\000'
    and mask = Bytes.make page_size '\000' in
    let overlay =
      List.iter (fun (off, s) ->
          Bytes.blit_string s 0 scratch off (String.length s);
          Bytes.fill mask off (String.length s) '\001')
    in
    overlay older;
    overlay newer;
    let rec runs i acc =
      if i >= page_size then List.rev acc
      else if Bytes.get mask i = '\000' then runs (i + 1) acc
      else
        let e = ref i in
        while !e < page_size && Bytes.get mask !e = '\001' do
          incr e
        done;
        runs !e ((i, Bytes.sub_string scratch i (!e - i)) :: acc)
    in
    runs 0 []
  end

let ref_covers segs ~page_size =
  match segs with [ (0, s) ] -> String.length s = page_size | _ -> false

(* The reference layout of a [diff_spec]: [ref_create] for edits and
   [ref_merge] for merges. *)
let rec ref_build twin = function
  | Edits edits ->
      let current = Bytes.copy twin in
      List.iter
        (fun (w, run, c) ->
          let off = 4 * w in
          Bytes.fill current off (min (4 * run) (page_size - off)) c)
        edits;
      ref_create ~twin ~current
  | Span (off, len, c) -> if len <= 0 then [] else [ (off, String.make len c) ]
  | Full c -> [ (0, String.make page_size c) ]
  | Merged (a, b) -> ref_merge (ref_build twin a) (ref_build twin b) ~page_size

let qcheck_merge_layout =
  QCheck.Test.make ~count:1000
    ~name:"merge layout = byte-mask reference (segments, covers_page)"
    (QCheck.make ~print:print_spec gen_spec) (fun spec ->
      let twin = Bytes.init page_size (fun i -> Char.chr (i mod 113)) in
      let d = build_diff twin spec and r = ref_build twin spec in
      Diff.segments d = r
      && Diff.covers_page d ~page_size = ref_covers r ~page_size)

(* Pages of [nwords] 32-bit words, so an odd count leaves a tail word the
   64-bit skip cannot cover; [floats] edits change only the low word of a
   float (IS's counts, Jacobi's small updates), leaving 4-byte runs at
   8-byte strides. *)
let qcheck_create_layout =
  let gen =
    QCheck.Gen.(
      triple (int_range 1 80) bool
        (list_size (int_bound 40) (pair (int_bound 79) (int_range 1 3))))
  in
  let print (nwords, floats, edits) =
    Printf.sprintf "words=%d floats=%b edits=[%s]" nwords floats
      (String.concat ";"
         (List.map (fun (w, r) -> Printf.sprintf "%d+%d" w r) edits))
  in
  QCheck.Test.make ~count:1000
    ~name:"create layout = word-scan reference (tail word, float low words)"
    (QCheck.make ~print gen) (fun (nwords, floats, edits) ->
      let n = 4 * nwords in
      let twin = Bytes.init n (fun i -> Char.chr ((i * 31) mod 251)) in
      let current = Bytes.copy twin in
      List.iter
        (fun (w, run) ->
          let w = w mod nwords in
          if floats then
            (* the low (first) word of each of [run] floats from word [w] *)
            for k = 0 to run - 1 do
              let off = 8 * ((w / 2) + k) in
              if off + 8 <= n then
                Bytes.set_int64_le current off
                  (Int64.add (Bytes.get_int64_le current off) 1L)
            done
          else
            (* one byte of each of [run] words, at a varying position *)
            for k = w to min (nwords - 1) (w + run - 1) do
              let off = (4 * k) + (k mod 4) in
              Bytes.set current off
                (Char.chr ((Char.code (Bytes.get current off) + 1) mod 256))
            done)
        edits;
      let d = Diff.create ~twin ~current in
      let dst = Bytes.copy twin in
      Diff.apply d dst;
      Diff.segments d = ref_create ~twin ~current && Bytes.equal dst current)

let test_apply_overrun () =
  let twin = Bytes.make page_size '\000' in
  let current = Bytes.copy twin in
  (* a segment that fits a half-size destination, then one that does not *)
  Bytes.set current 4 'a';
  Bytes.set current (page_size - 4) 'b';
  let d = Diff.create ~twin ~current in
  Alcotest.(check int) "two segments" 2 (Diff.nsegments d);
  let dst = Bytes.make (page_size / 2) 'z' in
  Alcotest.check_raises "overrun raises"
    (Invalid_argument "Bytes.blit") (fun () -> Diff.apply d dst);
  Alcotest.(check string) "dst untouched"
    (String.make (page_size / 2) 'z')
    (Bytes.to_string dst)

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
  Page_table.make_twin pt pg;
  Alcotest.(check bool) "twin made" true (pg.Page_table.twin <> None);
  Bytes.set pg.Page_table.data 0 'x';
  (match pg.Page_table.twin with
  | Some twin ->
      Alcotest.(check char) "twin unchanged" '\000' (Bytes.get twin 0)
  | None -> Alcotest.fail "twin");
  Page_table.drop_twin pt pg;
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
  Page_table.make_twin pt pg;
  Page_table.drop_frame pg;
  Alcotest.(check bool) "dropped frame is inaccessible, twinless" true
    (pg.Page_table.prot = Page_table.No_access && pg.Page_table.twin = None);
  Alcotest.(check bool) "record survives the drop" true
    (Page_table.find pt 7 <> None);
  Alcotest.(check (list int)) "no frame after the drop" [] (Page_table.frames pt);
  Alcotest.(check char) "a re-got frame reads zero" '\000'
    (Bytes.get (Page_table.get pt 7).Page_table.data 0)

(* Twins are recycled through the page table's bounded list of spares.
   Random twin, drop and write operations over a few pages: a twin made
   from a recycled buffer equals its page's data when it is made, and no
   buffer is the twin of two pages at once. *)
type twin_op = Twin of int | Untwin of int | Scribble of int * int * char

let qcheck_twin_recycling =
  let pages = 6 and psize = 64 in
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun g -> Twin g) (int_bound (pages - 1)));
          (2, map (fun g -> Untwin g) (int_bound (pages - 1)));
          ( 3,
            map3
              (fun g off c -> Scribble (g, off, c))
              (int_bound (pages - 1))
              (int_bound (psize - 1))
              printable );
        ])
  in
  let print = function
    | Twin g -> Printf.sprintf "twin %d" g
    | Untwin g -> Printf.sprintf "drop %d" g
    | Scribble (g, off, c) -> Printf.sprintf "write %d@%d=%c" g off c
  in
  QCheck.Test.make ~count:300 ~name:"page table: recycled twins"
    (QCheck.make ~print:(QCheck.Print.list print)
       QCheck.Gen.(list_size (int_range 1 120) op))
    (fun ops ->
      let pt = Page_table.create ~page_size:psize in
      let pg g = Page_table.get pt g in
      let distinct () =
        let twins =
          List.filter_map
            (fun g -> (pg g).Page_table.twin)
            (List.init pages Fun.id)
        in
        List.for_all
          (fun a -> List.length (List.filter (fun b -> a == b) twins) = 1)
          twins
      in
      List.for_all
        (fun op ->
          (match op with
          | Twin g ->
              let p = pg g in
              let had = p.Page_table.twin <> None in
              Page_table.make_twin pt p;
              (match p.Page_table.twin with
              | Some twin -> had || Bytes.equal twin p.Page_table.data
              | None -> false)
          | Untwin g ->
              Page_table.drop_twin pt (pg g);
              (pg g).Page_table.twin = None
          | Scribble (g, off, c) ->
              Bytes.set (pg g).Page_table.data off c;
              true)
          && distinct ())
        ops)

(* A dropped twin's buffer is the next twin, and the spares are bounded:
   of 40 twins dropped at once, the 40 made next reuse 32 buffers. *)
let test_twin_spares_bounded () =
  let pt = Page_table.create ~page_size:64 in
  let twins base =
    List.init 40 (fun i ->
        let p = Page_table.get pt (base + i) in
        Page_table.make_twin pt p;
        (p, Option.get p.Page_table.twin))
  in
  let first = twins 0 in
  List.iter (fun (p, _) -> Page_table.drop_twin pt p) first;
  let second = twins 100 in
  let reused =
    List.filter (fun (_, b) -> List.exists (fun (_, a) -> a == b) first) second
  in
  Alcotest.(check int) "spares reused, up to the bound" 32 (List.length reused);
  let p = Page_table.get pt 7 in
  Bytes.fill p.Page_table.data 0 64 'z';
  let p' = fst (List.hd second) in
  let buf = Option.get p'.Page_table.twin in
  Page_table.drop_twin pt p';
  Page_table.make_twin pt p;
  Alcotest.(check bool) "the last dropped buffer is the next twin" true
    (Option.get p.Page_table.twin == buf);
  Alcotest.(check string) "holding the page's bytes" (String.make 64 'z')
    (Bytes.to_string buf)

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

(* {1 Object-slot scan}

   [Diff.changed_slots] must name exactly the slots a byte-by-byte
   comparison of every slot names. *)

let slot_sizes = [ 8; 16; 64; 512; 4096 ]

(* the run-time's page size, so a 4096-byte object fills a page *)
let slot_page = 4096

(* the reference: every byte of every slot, no early exit *)
let changed_slots_ref ~twin ~current ~slot_size =
  let acc = ref [] in
  for s = 0 to (Bytes.length current / slot_size) - 1 do
    let off = s * slot_size in
    let differs = ref false in
    for i = off to off + slot_size - 1 do
      if Bytes.get twin i <> Bytes.get current i then differs := true
    done;
    if !differs then acc := s :: !acc
  done;
  List.rev !acc

(* Edit (slot, where) pairs: [where] 0 is the slot's first byte, 1 its
   last, 2 both the last byte and the next slot's first (adjacent slots
   straddling a boundary), anything else a byte in between. *)
let flip_slot_bytes current ~slot_size edits =
  let nslots = Bytes.length current / slot_size in
  let flip i =
    Bytes.set current i (Char.chr ((Char.code (Bytes.get current i) + 1) land 255))
  in
  List.iter
    (fun (slot, where) ->
      let slot = slot mod nslots in
      let off = slot * slot_size in
      match where with
      | 0 -> flip off
      | 1 -> flip (off + slot_size - 1)
      | 2 ->
          flip (off + slot_size - 1);
          if slot + 1 < nslots then flip (off + slot_size)
      | w -> flip (off + (w mod slot_size)))
    edits

let test_changed_slots_edges () =
  List.iter
    (fun slot_size ->
      List.iter
        (fun edits ->
          let twin = Bytes.init slot_page (fun i -> Char.chr (i mod 251)) in
          let current = Bytes.copy twin in
          flip_slot_bytes current ~slot_size edits;
          Alcotest.(check (list int))
            (Printf.sprintf "size %d edits %s" slot_size
               (String.concat ","
                  (List.map (fun (s, w) -> Printf.sprintf "%d@%d" s w) edits)))
            (changed_slots_ref ~twin ~current ~slot_size)
            (Diff.changed_slots ~twin ~current ~slot_size))
        [ []; [ (0, 0) ]; [ (0, 1) ]; [ (0, 2) ]; [ (3, 0); (4, 1) ];
          [ (1000, 2) ]; [ (511, 1) ]; [ (7, 5) ] ])
    slot_sizes;
  Alcotest.check_raises "slot size not a multiple of 8"
    (Invalid_argument "Diff.changed_slots") (fun () ->
      ignore
        (Diff.changed_slots ~twin:(Bytes.make 64 'a') ~current:(Bytes.make 64 'a')
           ~slot_size:12))

let qcheck_changed_slots =
  let gen =
    QCheck.Gen.(
      triple (oneofl slot_sizes) (int_bound 1000)
        (list_size (int_bound 12) (pair (int_bound 600) (int_bound 40))))
  in
  let print (slot_size, seed, edits) =
    Printf.sprintf "slot=%d seed=%d edits=[%s]" slot_size seed
      (String.concat ";"
         (List.map (fun (s, w) -> Printf.sprintf "%d@%d" s w) edits))
  in
  QCheck.Test.make ~count:500
    ~name:"changed_slots = byte-by-byte reference (first/last byte, adjacent)"
    (QCheck.make ~print gen) (fun (slot_size, seed, edits) ->
      let twin =
        Bytes.init slot_page (fun i -> Char.chr (((i * 37) + seed) land 255))
      in
      let current = Bytes.copy twin in
      flip_slot_bytes current ~slot_size edits;
      Diff.changed_slots ~twin ~current ~slot_size
      = changed_slots_ref ~twin ~current ~slot_size)

let tests =
  [
    Alcotest.test_case "diff roundtrip" `Quick test_diff_roundtrip;
    Alcotest.test_case "diff word granularity" `Quick test_diff_word_granularity;
    Alcotest.test_case "diff empty" `Quick test_diff_empty;
    Alcotest.test_case "diff full/range" `Quick test_diff_full_and_range;
    Alcotest.test_case "diff merge" `Quick test_diff_merge;
    Alcotest.test_case "diff apply overrun leaves dst untouched" `Quick
      test_apply_overrun;
    Alcotest.test_case "addr space" `Quick test_addr_space;
    Alcotest.test_case "array layout" `Quick test_array_layout;
    Alcotest.test_case "section ranges" `Quick test_section_ranges;
    Alcotest.test_case "section inter" `Quick test_section_inter;
    Alcotest.test_case "page table" `Quick test_page_table;
    Alcotest.test_case "page table: frameless pages" `Quick
      test_page_table_frameless;
    Alcotest.test_case "page map" `Quick test_page_map;
    Alcotest.test_case "changed slots: first/last byte, adjacent slots" `Quick
      test_changed_slots_edges;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        qcheck_diff;
        qcheck_merge;
        qcheck_apply_ref;
        qcheck_merge_layout;
        qcheck_create_layout;
        qcheck_changed_slots;
      ]
  @ [
      QCheck_alcotest.to_alcotest qcheck_twin_recycling;
      Alcotest.test_case "page table: twin spares bounded" `Quick
        test_twin_spares_bounded;
      QCheck_alcotest.to_alcotest qcheck_apply_bounds;
    ]
