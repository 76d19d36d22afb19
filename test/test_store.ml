(* Diff_store: interval bookkeeping, entitlement filtering, WRITE_ALL
   supersede, coalescing. *)

module Store = Dsm_tmk.Diff_store
module Diff = Dsm_mem.Diff

let page_size = 64

let mk_diff off len v =
  let page = Bytes.make page_size '\000' in
  Bytes.fill page off len v;
  Diff.of_range page ~off ~len

let full_diff v = Diff.full (Bytes.make page_size v)

let latest_writer t ~page ws =
  let a = Array.of_list ws in
  Store.latest_writer t ~page a (Array.length a)

let test_fetch_after () =
  let t = Store.create ~nprocs:4 ~page_size ~retire:false in
  Store.add t ~writer:1 ~page:0 ~seq:2 ~vcsum:5 ~diff:(mk_diff 0 4 'a')
    ~supersedes:false;
  Store.add t ~writer:1 ~page:0 ~seq:4 ~vcsum:9 ~diff:(mk_diff 4 4 'b')
    ~supersedes:false;
  let r = Store.fetch t ~writer:1 ~page:0 ~after:0 ~upto:10 in
  Alcotest.(check int) "both diffs" 2 r.Store.ndiffs;
  Alcotest.(check int) "bytes summed" 8 r.Store.charge_bytes;
  let r2 = Store.fetch t ~writer:1 ~page:0 ~after:2 ~upto:10 in
  Alcotest.(check int) "only newer" 1 r2.Store.ndiffs;
  let r3 = Store.fetch t ~writer:1 ~page:0 ~after:4 ~upto:10 in
  Alcotest.(check int) "nothing newer" 0 r3.Store.ndiffs

let test_entitlement () =
  (* a diff whose span starts beyond the requester's notices is withheld *)
  let t = Store.create ~nprocs:4 ~page_size ~retire:false in
  Store.add t ~writer:1 ~page:0 ~seq:3 ~vcsum:5 ~diff:(mk_diff 0 4 'a')
    ~supersedes:false;
  Store.add t ~writer:1 ~page:0 ~seq:7 ~vcsum:11 ~diff:(mk_diff 4 4 'b')
    ~supersedes:false;
  (* requester only has notices up to seq 5: the second entry spans [4..7]
     and its lo (4) is within the entitlement, so it is sent whole *)
  let r = Store.fetch t ~writer:1 ~page:0 ~after:3 ~upto:5 in
  Alcotest.(check int) "spanning entry included" 1 r.Store.ndiffs;
  (* with notices only up to 3, the [4..7] entry must be withheld *)
  let r2 = Store.fetch t ~writer:1 ~page:0 ~after:3 ~upto:3 in
  Alcotest.(check int) "beyond entitlement withheld" 0 r2.Store.ndiffs

let test_supersede () =
  let t = Store.create ~nprocs:4 ~page_size ~retire:false in
  Store.add t ~writer:2 ~page:5 ~seq:1 ~vcsum:2 ~diff:(mk_diff 0 8 'x')
    ~supersedes:false;
  Store.add t ~writer:2 ~page:5 ~seq:2 ~vcsum:4 ~diff:(mk_diff 8 8 'y')
    ~supersedes:false;
  Store.add t ~writer:2 ~page:5 ~seq:3 ~vcsum:6 ~diff:(full_diff 'z')
    ~supersedes:true;
  let r = Store.fetch t ~writer:2 ~page:5 ~after:0 ~upto:10 in
  Alcotest.(check int) "older history dropped" 1 r.Store.ndiffs;
  Alcotest.(check int) "full page bytes" page_size r.Store.charge_bytes;
  Alcotest.(check bool) "latest is full page" true
    (Store.latest_full_page t ~writer:2 ~page:5 <> None)

let test_latest_vcsum () =
  let t = Store.create ~nprocs:4 ~page_size ~retire:false in
  Alcotest.(check (option int)) "empty" None
    (Store.latest_vcsum t ~writer:0 ~page:0);
  Store.add t ~writer:0 ~page:0 ~seq:1 ~vcsum:3 ~diff:(mk_diff 0 4 'a')
    ~supersedes:false;
  Store.add t ~writer:0 ~page:0 ~seq:2 ~vcsum:8 ~diff:(mk_diff 0 4 'b')
    ~supersedes:false;
  Alcotest.(check (option int)) "latest" (Some 8)
    (Store.latest_vcsum t ~writer:0 ~page:0)

let test_has_any_and_writers () =
  let t = Store.create ~nprocs:4 ~page_size ~retire:false in
  Store.add t ~writer:3 ~page:9 ~seq:5 ~vcsum:5 ~diff:(mk_diff 0 4 'q')
    ~supersedes:false;
  Alcotest.(check bool) "has newer" true (Store.has_any t ~writer:3 ~page:9 ~after:4);
  Alcotest.(check bool) "none newer" false (Store.has_any t ~writer:3 ~page:9 ~after:5);
  Alcotest.(check (list int)) "writers" [ 3 ] (Store.writers_of_page t ~page:9);
  Alcotest.(check (list int)) "no writers" [] (Store.writers_of_page t ~page:1)

let test_coalesce_preserves_accounting () =
  (* many single-writer entries: payloads merge, per-interval sizes stay *)
  let t = Store.create ~nprocs:2 ~page_size ~retire:false in
  for seq = 1 to 12 do
    Store.add t ~writer:0 ~page:0 ~seq ~vcsum:seq ~diff:(mk_diff 0 4 'k')
      ~supersedes:false
  done;
  let r = Store.fetch t ~writer:0 ~page:0 ~after:0 ~upto:20 in
  Alcotest.(check int) "all twelve accounted" 12 r.Store.ndiffs;
  Alcotest.(check int) "bytes accumulated" 48 r.Store.charge_bytes;
  (* applying the returned units reconstructs the content *)
  let dst = Bytes.make page_size '\000' in
  List.iter (fun u -> Diff.apply u.Store.payload dst) r.Store.units;
  Alcotest.(check char) "content" 'k' (Bytes.get dst 0)

let test_apply_order () =
  (* units sort by their vcsum stamp: the later write wins *)
  let t = Store.create ~nprocs:4 ~page_size ~retire:false in
  Store.add t ~writer:0 ~page:0 ~seq:1 ~vcsum:3 ~diff:(mk_diff 0 4 'o')
    ~supersedes:false;
  Store.add t ~writer:1 ~page:0 ~seq:1 ~vcsum:7 ~diff:(mk_diff 0 4 'n')
    ~supersedes:false;
  let units =
    (Store.fetch t ~writer:0 ~page:0 ~after:0 ~upto:9).Store.units
    @ (Store.fetch t ~writer:1 ~page:0 ~after:0 ~upto:9).Store.units
  in
  let sorted = List.sort (fun a b -> compare a.Store.order b.Store.order) units in
  let dst = Bytes.make page_size '\000' in
  List.iter (fun u -> Diff.apply u.Store.payload dst) sorted;
  Alcotest.(check char) "happens-after wins" 'n' (Bytes.get dst 0)

let test_many_writers_one_page () =
  (* regression for the writer-bitmask rewrite: with every processor
     writing the same page, membership stays exact, enumeration ascending
     and duplicate-free, and per-writer histories stay independent *)
  let t = Store.create ~nprocs:8 ~page_size ~retire:false in
  for w = 0 to 7 do
    Store.add t ~writer:w ~page:3 ~seq:1 ~vcsum:(w + 1)
      ~diff:(mk_diff (4 * w) 4 (Char.chr (Char.code 'a' + w)))
      ~supersedes:false
  done;
  Alcotest.(check (list int)) "ascending writers"
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (Store.writers_of_page t ~page:3);
  Store.add t ~writer:5 ~page:3 ~seq:2 ~vcsum:20 ~diff:(mk_diff 20 4 'z')
    ~supersedes:false;
  Alcotest.(check (list int)) "no duplicates on re-add"
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (Store.writers_of_page t ~page:3);
  let r = Store.fetch t ~writer:5 ~page:3 ~after:0 ~upto:10 in
  Alcotest.(check int) "writer 5 history intact" 2 r.Store.ndiffs;
  (* applying every writer's units in stamp order reconstructs all bytes *)
  let units =
    List.concat_map
      (fun w -> (Store.fetch t ~writer:w ~page:3 ~after:0 ~upto:10).Store.units)
      (List.init 8 Fun.id)
  in
  let sorted = List.sort (fun a b -> compare a.Store.order b.Store.order) units in
  let dst = Bytes.make page_size '\000' in
  List.iter (fun u -> Diff.apply u.Store.payload dst) sorted;
  for w = 0 to 7 do
    Alcotest.(check char)
      (Printf.sprintf "writer %d bytes" w)
      (if w = 5 then 'z' else Char.chr (Char.code 'a' + w))
      (Bytes.get dst (4 * w))
  done

let test_gc_of_applied_entries () =
  (* entries below everyone's applied watermark are dropped after a merge;
     a requester (whose [after] is always >= watermark - 1) still gets the
     merged base plus full per-interval accounting for live seqs, and the
     newest-entry queries survive the GC *)
  let t = Store.create ~nprocs:2 ~page_size ~retire:false in
  for seq = 1 to 12 do
    Store.add t ~writer:0 ~page:0 ~seq ~vcsum:seq ~diff:(mk_diff 0 4 'k')
      ~supersedes:false
  done;
  Store.note_applied t ~writer:0 ~page:0 ~by:0 ~seq:11;
  Store.note_applied t ~writer:0 ~page:0 ~by:1 ~seq:11;
  for seq = 13 to 21 do
    (* drive another coalesce past the GC threshold *)
    Store.add t ~writer:0 ~page:0 ~seq ~vcsum:seq ~diff:(mk_diff 4 4 'm')
      ~supersedes:false
  done;
  let r = Store.fetch t ~writer:0 ~page:0 ~after:11 ~upto:30 in
  Alcotest.(check int) "live seqs all accounted" 10 r.Store.ndiffs;
  Alcotest.(check int) "live bytes accounted" 40 r.Store.charge_bytes;
  let dst = Bytes.make page_size '\000' in
  List.iter (fun u -> Diff.apply u.Store.payload dst) r.Store.units;
  Alcotest.(check char) "merged base content present" 'k' (Bytes.get dst 0);
  Alcotest.(check char) "live entry content present" 'm' (Bytes.get dst 4);
  Alcotest.(check (option int)) "latest vcsum survives GC" (Some 21)
    (Store.latest_vcsum t ~writer:0 ~page:0);
  Alcotest.(check bool) "has_any survives GC" true
    (Store.has_any t ~writer:0 ~page:0 ~after:20)

(* {1 Model test}

   The page-indexed store against a naive model: one record per (writer,
   page) in an association list, with entries kept oldest first and
   filtered per fetch. Random add / note_applied / fetch sequences over up
   to 64 writers insert writers at the front, middle and back of a page's
   writer set. *)

module Model = struct
  type entry = {
    lo : int;
    seq : int;
    vcsum : int;
    size : int;
    supersede : bool;
    mutable payload : Diff.t option;
  }

  type cell = {
    writer : int;
    page : int;
    mutable base : Diff.t;
    mutable base_seq : int;
    mutable base_vcsum : int;
    mutable entries : entry list;  (* oldest first *)
    mutable hi_seq : int;
    mutable newest : entry option;
    applied_by : int array;
  }

  type t = { nprocs : int; mutable cells : cell list }

  let create ~nprocs = { nprocs; cells = [] }

  let find t ~writer ~page =
    List.find_opt (fun c -> c.writer = writer && c.page = page) t.cells

  let writers_of_page t ~page =
    List.sort compare
      (List.filter_map
         (fun c -> if c.page = page then Some c.writer else None)
         t.cells)

  let single_writer t ~page ~writer = writers_of_page t ~page = [ writer ]

  let get t ~writer ~page =
    match find t ~writer ~page with
    | Some c -> c
    | None ->
        let c =
          {
            writer;
            page;
            base = Diff.empty;
            base_seq = 0;
            base_vcsum = 0;
            entries = [];
            hi_seq = 0;
            newest = None;
            applied_by = Array.make t.nprocs 0;
          }
        in
        t.cells <- c :: t.cells;
        c

  let coalesce t c =
    let min_applied = Array.fold_left min max_int c.applied_by in
    let solo = single_writer t ~page:c.page ~writer:c.writer in
    List.iter
      (fun e ->
        match e.payload with
        | Some d when solo || e.seq <= min_applied ->
            c.base <- Diff.merge c.base d;
            c.base_seq <- max c.base_seq e.seq;
            c.base_vcsum <- max c.base_vcsum e.vcsum;
            e.payload <- None
        | _ -> ())
      c.entries;
    c.entries <-
      List.filter
        (fun e -> not (e.payload = None && e.seq <= min_applied - 1))
        c.entries

  let add t ~writer ~page ~seq ~vcsum ~diff ~supersedes =
    let c = get t ~writer ~page in
    let lo = max (c.base_seq + 1) (c.hi_seq + 1) in
    let e =
      {
        lo;
        seq;
        vcsum;
        size = Diff.size_bytes diff;
        supersede = supersedes;
        payload = Some diff;
      }
    in
    c.hi_seq <- seq;
    c.newest <- Some e;
    if supersedes then begin
      c.base <- Diff.empty;
      c.base_seq <- 0;
      c.base_vcsum <- 0;
      c.entries <- [ e ]
    end
    else begin
      c.entries <- c.entries @ [ e ];
      if List.length c.entries > 8 then coalesce t c
    end

  (* units as (order, writer, upto_seq, segments) *)
  let fetch t ~writer ~page ~after ~upto =
    match find t ~writer ~page with
    | None -> ([], 0, 0)
    | Some c ->
        let covered =
          List.filter (fun e -> e.seq > after && e.lo <= upto) c.entries
        in
        let base =
          if c.base_seq > after && not (Diff.is_empty c.base) then
            [ (c.base_vcsum, writer, c.base_seq, Diff.segments c.base) ]
          else []
        in
        let units =
          List.filter_map
            (fun e ->
              Option.map
                (fun d -> (e.vcsum, writer, e.seq, Diff.segments d))
                e.payload)
            covered
        in
        ( base @ units,
          List.fold_left (fun a e -> a + e.size) 0 covered,
          List.length covered )

  let latest_vcsum t ~writer ~page =
    match find t ~writer ~page with
    | None -> None
    | Some c -> (
        match c.newest with
        | Some e -> Some e.vcsum
        | None -> if c.base_seq > 0 then Some c.base_vcsum else None)

  let latest_full_page t ~writer ~page =
    match find t ~writer ~page with
    | Some { newest = Some ({ supersede = true; payload = Some d; _ } as e); _ }
      when Diff.covers_page d ~page_size ->
        Some (e.vcsum, e.seq)
    | _ -> None

  let latest_writer t ~page writers =
    List.fold_left
      (fun best q ->
        match (latest_vcsum t ~writer:q ~page, best) with
        | Some v, None -> Some (q, v)
        | Some v, Some (_, bv) when v > bv -> Some (q, v)
        | _ -> best)
      None writers
    |> Option.fold ~none:(-1) ~some:fst

  let has_any t ~writer ~page ~after =
    match find t ~writer ~page with
    | Some c -> c.base_seq > after || c.hi_seq > after
    | None -> false

  let note_applied t ~writer ~page ~by ~seq =
    match find t ~writer ~page with
    | Some c -> if seq > c.applied_by.(by) then c.applied_by.(by) <- seq
    | None -> ()
end

type op =
  | Add of int * int * int * bool  (* writer, page, diff kind, supersedes *)
  | Note of int * int * int * int  (* writer, page, by, seq lag *)
  | Fetch of int * int * int * int  (* writer, page, after lag, upto span *)

let model_nprocs = 64
let model_pages = 3

let print_op = function
  | Add (w, p, k, s) -> Printf.sprintf "add(w%d,p%d,k%d,%b)" w p k s
  | Note (w, p, b, l) -> Printf.sprintf "note(w%d,p%d,by%d,-%d)" w p b l
  | Fetch (w, p, a, u) -> Printf.sprintf "fetch(w%d,p%d,-%d,+%d)" w p a u

let gen_ops =
  let open QCheck.Gen in
  (* a few hot writers pile up entries (coalescing, GC); the rest spread
     over the whole range *)
  let writer =
    frequency [ (2, int_bound (model_nprocs - 1)); (1, oneofl [ 0; 31; 63 ]) ]
  in
  let page = int_bound (model_pages - 1) in
  list_size (int_range 1 150)
    (frequency
       [
         ( 5,
           map
             (fun (w, p, k, sup) -> Add (w, p, k, sup))
             (quad writer page (int_bound 3) (frequencyl [ (6, false); (1, true) ]))
         );
         ( 2,
           map
             (fun (w, p, b, l) -> Note (w, p, b, l))
             (quad writer page (int_bound (model_nprocs - 1)) (int_bound 3)) );
         ( 3,
           map
             (fun (w, p, a, u) -> Fetch (w, p, a, u))
             (quad writer page (int_bound 12) (int_bound 12)) );
       ])

let model_diff kind =
  match kind with
  | 0 -> mk_diff 0 4 'a'
  | 1 -> mk_diff 8 16 'b'
  | 2 -> mk_diff 4 4 'c'
  | _ -> full_diff 'f'

let store_units r =
  List.map
    (fun u ->
      (u.Store.order, u.Store.writer, u.Store.upto_seq, Diff.segments u.Store.payload))
    r.Store.units

let prop_store_model =
  QCheck.Test.make ~count:150 ~name:"page-indexed store agrees with the model"
    (QCheck.make ~print:(QCheck.Print.list print_op) gen_ops) (fun ops ->
      let t = Store.create ~nprocs:model_nprocs ~page_size ~retire:false in
      let m = Model.create ~nprocs:model_nprocs in
      let seq = Array.make model_nprocs 0 in
      let all = List.init model_nprocs Fun.id in
      let queries_agree () =
        List.for_all
          (fun page ->
            let ws = Store.writers_of_page t ~page in
            ws = Model.writers_of_page m ~page
            && latest_writer t ~page all = Model.latest_writer m ~page all
            && latest_writer t ~page ws = Model.latest_writer m ~page ws
            && List.for_all
                 (fun writer ->
                   Store.single_writer t ~page ~writer
                   = Model.single_writer m ~page ~writer
                   && Store.latest_vcsum t ~writer ~page
                      = Model.latest_vcsum m ~writer ~page
                   && Store.latest_full_page t ~writer ~page
                      = Model.latest_full_page m ~writer ~page)
                 all)
          (List.init model_pages Fun.id)
      in
      List.for_all
        (fun op ->
          let step_ok =
            match op with
            | Add (writer, page, kind, supersedes) ->
                seq.(writer) <- seq.(writer) + 1;
                (* stamps grow with the writer's own seq, so writers at
                   the same seq tie, as concurrent releases can *)
                let diff = model_diff kind in
                let seq = seq.(writer) in
                let vcsum = (2 * seq) + (writer mod 2) in
                Store.add t ~writer ~page ~seq ~vcsum ~diff ~supersedes;
                Model.add m ~writer ~page ~seq ~vcsum ~diff ~supersedes;
                true
            | Note (writer, page, by, lag) ->
                let seq = max 0 (seq.(writer) - lag) in
                Store.note_applied t ~writer ~page ~by ~seq;
                Model.note_applied m ~writer ~page ~by ~seq;
                true
            | Fetch (writer, page, lag, span) ->
                let after = max 0 (seq.(writer) - lag) in
                let upto = after + span in
                let r = Store.fetch t ~writer ~page ~after ~upto in
                let units, bytes, ndiffs = Model.fetch m ~writer ~page ~after ~upto in
                store_units r = units
                && r.Store.charge_bytes = bytes
                && r.Store.ndiffs = ndiffs
          in
          step_ok && queries_agree ())
        ops)

(* Dense cells: a few writers and many adds per (writer, page), so every
   cell passes the coalescing threshold many times over, with seq gaps
   (accumulated diffs span several intervals), overlapping and touching
   payloads, and watermarks from every processor so merged entries are
   both retained for accounting and dropped. Page 0 has writer 0 only
   (single-writer coalescing), page 1 up to four writers. *)

type dense_op =
  | D_add of int * int * int * (int * int * char) * bool
      (* writer, page, seq gap, (off, len, fill), supersedes *)
  | D_note of int * int * int * int  (* writer, page, by, seq lag *)
  | D_fetch of int * int * int * int  (* writer, page, after lag, upto span *)

let dense_nprocs = 4

let print_dense_op = function
  | D_add (w, p, g, (o, l, c), s) ->
      Printf.sprintf "add(w%d,p%d,+%d,%d:%d=%C,%b)" w p g o l c s
  | D_note (w, p, b, l) -> Printf.sprintf "note(w%d,p%d,by%d,-%d)" w p b l
  | D_fetch (w, p, a, u) -> Printf.sprintf "fetch(w%d,p%d,-%d,+%d)" w p a u

let gen_dense_ops =
  let open QCheck.Gen in
  let writer = int_bound (dense_nprocs - 1) and page = int_bound 1 in
  let payload =
    int_bound (page_size - 1) >>= fun off ->
    frequency
      [ (3, int_range 1 8); (1, int_range 1 (page_size - off)) ]
    >>= fun len -> map (fun c -> (off, min len (page_size - off), c)) printable
  in
  list_size (int_range 40 200)
    (frequency
       [
         ( 6,
           map
             (fun ((w, p, g), d, sup) ->
               D_add ((if p = 0 then 0 else w), p, g, d, sup))
             (triple
                (triple writer page (frequencyl [ (4, 1); (1, 2); (1, 3) ]))
                payload
                (frequencyl [ (20, false); (1, true) ])) );
         ( 3,
           map
             (fun (w, p, b, l) -> D_note (w, p, b, l))
             (quad writer page writer (int_bound 4)) );
         ( 3,
           map
             (fun (w, p, a, u) -> D_fetch (w, p, a, u))
             (quad writer page (int_bound 14) (int_bound 6)) );
       ])

let prop_dense_cells =
  QCheck.Test.make ~count:200 ~name:"dense cells agree with the list model"
    (QCheck.make ~print:(QCheck.Print.list print_dense_op) gen_dense_ops)
    (fun ops ->
      let t = Store.create ~nprocs:dense_nprocs ~page_size ~retire:false in
      let m = Model.create ~nprocs:dense_nprocs in
      let seq = Array.make dense_nprocs 0 and vcsum = ref 0 in
      let all = List.init dense_nprocs Fun.id in
      let queries_agree page =
        latest_writer t ~page all = Model.latest_writer m ~page all
        && List.for_all
             (fun writer ->
               Store.latest_vcsum t ~writer ~page
               = Model.latest_vcsum m ~writer ~page
               && Store.latest_full_page t ~writer ~page
                  = Model.latest_full_page m ~writer ~page
               && List.for_all
                    (fun after ->
                      Store.has_any t ~writer ~page ~after
                      = Model.has_any m ~writer ~page ~after)
                    [ 0; seq.(writer) - 1; seq.(writer) ])
             all
      in
      List.for_all
        (fun op ->
          match op with
          | D_add (writer, page, gap, (off, len, c), supersedes) ->
              seq.(writer) <- seq.(writer) + gap;
              incr vcsum;
              let diff =
                if supersedes then full_diff c else mk_diff off len c
              in
              let seq = seq.(writer) and vcsum = !vcsum in
              Store.add t ~writer ~page ~seq ~vcsum ~diff ~supersedes;
              Model.add m ~writer ~page ~seq ~vcsum ~diff ~supersedes;
              queries_agree page
          | D_note (writer, page, by, lag) ->
              let seq = max 0 (seq.(writer) - lag) in
              Store.note_applied t ~writer ~page ~by ~seq;
              Model.note_applied m ~writer ~page ~by ~seq;
              true
          | D_fetch (writer, page, lag, span) ->
              let after = max 0 (seq.(writer) - lag) in
              let upto = after + span in
              let r = Store.fetch t ~writer ~page ~after ~upto in
              let units, bytes, ndiffs =
                Model.fetch m ~writer ~page ~after ~upto
              in
              store_units r = units
              && r.Store.charge_bytes = bytes
              && r.Store.ndiffs = ndiffs)
        ops)

(* [fetch_note] against the two calls it fuses: [fetch], then
   [note_applied] at [upto] raised to the highest seq the units cover.
   Two stores replay the same dense operations; the notes drive
   coalescing, so a wrong note shows in a later fetch's units. *)
let prop_fetch_note =
  QCheck.Test.make ~count:200 ~name:"fetch_note = fetch + note_applied"
    (QCheck.make ~print:(QCheck.Print.list print_dense_op) gen_dense_ops)
    (fun ops ->
      let fused = Store.create ~nprocs:dense_nprocs ~page_size ~retire:false
      and split = Store.create ~nprocs:dense_nprocs ~page_size ~retire:false in
      let seq = Array.make dense_nprocs 0 and vcsum = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | D_add (writer, page, gap, (off, len, c), supersedes) ->
              seq.(writer) <- seq.(writer) + gap;
              incr vcsum;
              let diff =
                if supersedes then full_diff c else mk_diff off len c
              in
              let seq = seq.(writer) and vcsum = !vcsum in
              Store.add fused ~writer ~page ~seq ~vcsum ~diff ~supersedes;
              Store.add split ~writer ~page ~seq ~vcsum ~diff ~supersedes;
              true
          | D_note (writer, page, by, lag) ->
              let seq = max 0 (seq.(writer) - lag) in
              Store.note_applied fused ~writer ~page ~by ~seq;
              Store.note_applied split ~writer ~page ~by ~seq;
              true
          | D_fetch (writer, page, lag, span) ->
              let after = max 0 (seq.(writer) - lag) in
              let upto = after + span
              and by = (writer + lag) mod dense_nprocs in
              let r = Store.fetch_note fused ~writer ~page ~after ~upto ~by in
              let r' = Store.fetch split ~writer ~page ~after ~upto in
              let high =
                List.fold_left
                  (fun acc u -> max acc u.Store.upto_seq)
                  0 r'.Store.units
              in
              Store.note_applied split ~writer ~page ~by ~seq:(max upto high);
              store_units r = store_units r'
              && r.Store.charge_bytes = r'.Store.charge_bytes
              && r.Store.ndiffs = r'.Store.ndiffs
              && r.Store.high = high
              && r'.Store.high = high)
        ops)

(* {1 Retirement of flushed entries}

   Under the home-based backend with one replica, a writer's own release
   flush is a cell's only reader: [fetch ~after:home_flushed ~upto:seq],
   applied to the home's copy, after which the home notes its watermark
   and {!Store.retire} drops what the flush passed. Two stores replay the
   same random flush sequence over four processors and two pages (page
   [g] homed at processor [g]), one retiring and one keeping every entry.
   A write may defer its flush to the writer's next write of the page, so
   unflushed entries pile up and coalesce; the home's own writes land in
   its copy and are retired at once; a reader that installs the home copy
   restates the home's watermark, which drives the keeping store's
   coalescing. Every flush must get the same [charge_bytes], [ndiffs] and
   [high] from both stores, and applying its units must leave both home
   copies byte-identical. *)

let retire_nprocs = 4
let retire_pages = 2

type retire_op =
  | R_write of int * int * int * (int * int * char) * bool * bool
      (** writer, page, seq gap, payload, supersedes, flush now *)
  | R_read of int * int * int  (** reader, page, writer *)

let print_retire_op = function
  | R_write (w, g, gap, (off, len, c), sup, flush) ->
      Printf.sprintf "write(w%d,g%d,+%d,%d:%d=%c%s%s)" w g gap off len c
        (if sup then ",all" else "")
        (if flush then "" else ",defer")
  | R_read (r, g, w) -> Printf.sprintf "read(r%d,g%d,w%d)" r g w

let gen_retire_ops =
  let open QCheck.Gen in
  let proc = int_bound (retire_nprocs - 1)
  and page = int_bound (retire_pages - 1) in
  let payload =
    int_bound (page_size - 1) >>= fun off ->
    int_range 1 8 >>= fun len ->
    map (fun c -> (off, min len (page_size - off), c)) printable
  in
  list_size (int_range 30 250)
    (frequency
       [
         ( 6,
           map
             (fun ((w, g, gap), d, (sup, flush)) ->
               R_write (w, g, gap, d, sup, flush))
             (triple
                (triple proc page (frequencyl [ (4, 1); (1, 2) ]))
                payload
                (pair
                   (frequencyl [ (30, false); (1, true) ])
                   (frequencyl [ (2, true); (1, false) ]))) );
         (3, map (fun (r, g, w) -> R_read (r, g, w)) (triple proc page proc));
       ])

let apply_sorted units page =
  List.iter
    (fun u -> Diff.apply u.Store.payload page)
    (List.stable_sort (fun a b -> compare a.Store.order b.Store.order) units)

let prop_retire_flushes =
  QCheck.Test.make ~count:300
    ~name:"retiring flushed entries keeps every hlrc flush identical"
    (QCheck.make ~print:(QCheck.Print.list print_retire_op) gen_retire_ops)
    (fun ops ->
      let n = retire_nprocs in
      let retiring = Store.create ~nprocs:n ~page_size ~retire:true
      and keeping = Store.create ~nprocs:n ~page_size ~retire:false in
      let both f = f retiring; f keeping in
      let home_r = Array.init retire_pages (fun _ -> Bytes.make page_size '\000')
      and home_k = Array.init retire_pages (fun _ -> Bytes.make page_size '\000') in
      let seq = Array.make n 0 and vcsum = ref 0 in
      let flushed = Array.make_matrix n retire_pages 0 in
      let retire ~writer ~page =
        both (fun t -> Store.retire t ~writer ~page ~upto:flushed.(writer).(page))
      in
      List.for_all
        (fun op ->
          match op with
          | R_read (reader, page, writer) ->
              both (fun t ->
                  Store.note_applied t ~writer ~page ~by:reader
                    ~seq:flushed.(writer).(page));
              true
          | R_write (writer, page, gap, (off, len, c), supersedes, flush) ->
              seq.(writer) <- seq.(writer) + gap;
              incr vcsum;
              let seq = seq.(writer) and vcsum = !vcsum in
              let diff = if supersedes then full_diff c else mk_diff off len c in
              both (fun t ->
                  Store.add t ~writer ~page ~seq ~vcsum ~diff ~supersedes;
                  Store.note_applied t ~writer ~page ~by:writer ~seq);
              if writer = page then begin
                (* the home's writes are already in its copy *)
                Diff.apply diff home_r.(page);
                Diff.apply diff home_k.(page);
                flushed.(writer).(page) <- seq;
                retire ~writer ~page;
                true
              end
              else if not flush then true
              else begin
                let after = flushed.(writer).(page) in
                let r = Store.fetch retiring ~writer ~page ~after ~upto:seq
                and k = Store.fetch keeping ~writer ~page ~after ~upto:seq in
                apply_sorted r.Store.units home_r.(page);
                apply_sorted k.Store.units home_k.(page);
                let high = max seq r.Store.high in
                if high > after then flushed.(writer).(page) <- high;
                both (fun t ->
                    Store.note_applied t ~writer ~page ~by:page
                      ~seq:flushed.(writer).(page));
                retire ~writer ~page;
                r.Store.charge_bytes = k.Store.charge_bytes
                && r.Store.ndiffs = k.Store.ndiffs
                && r.Store.high = k.Store.high
                && Bytes.equal home_r.(page) home_k.(page)
              end)
        ops)

(* The backend decides whether the store retires: only the home-based
   backend with one replica does. A store that keeps history ignores
   {!Store.retire}, so an entry retired there is still fetched. *)
let test_retire_only_single_replica_hlrc () =
  let module Config = Dsm_sim.Config in
  List.iter
    (fun (what, backend, replicas, retires) ->
      let cfg =
        { Config.default with Config.nprocs = 4; Config.backend; Config.replicas }
      in
      let sys = Dsm_tmk.Tmk.make cfg in
      let t = sys.Dsm_tmk.Types.store in
      Store.add t ~writer:1 ~page:0 ~seq:1 ~vcsum:1 ~diff:(mk_diff 0 4 'r')
        ~supersedes:false;
      Store.retire t ~writer:1 ~page:0 ~upto:1;
      let r = Store.fetch t ~writer:1 ~page:0 ~after:0 ~upto:1 in
      Alcotest.(check int)
        (what ^ (if retires then ": retired" else ": kept"))
        (if retires then 0 else 1)
        (List.length r.Store.units))
    [
      ("hlrc", Config.Hlrc, 1, true);
      ("hlrc replicas=3", Config.Hlrc, 3, false);
      ("adaptive", Config.Adaptive, 1, false);
      ("lrc", Config.Lrc, 1, false);
      ("inval", Config.Inval, 1, false);
    ]

(* sparse keys, and dense writer ids (ascending, as a many-writer fault
   requests them, or shuffled) past the 16-bucket table's first resize *)
let gen_hashtbl_keys =
  QCheck.Gen.(
    frequency
      [
        (2, list_size (int_range 0 150) (int_bound 5000));
        (1, map (fun n -> List.init n Fun.id) (int_range 33 200));
        (1, int_range 33 200 >>= fun n -> shuffle_l (List.init n Fun.id));
      ])

let prop_hashtbl_order =
  QCheck.Test.make ~count:300 ~name:"hashtbl_order = Hashtbl.iter order"
    (QCheck.make ~print:QCheck.Print.(list int) gen_hashtbl_keys)
    (fun keys ->
      (* distinct keys, in the order of their first occurrence *)
      let inserted =
        Array.of_list
          (List.rev
             (List.fold_left
                (fun acc k -> if List.mem k acc then acc else k :: acc)
                [] keys))
      in
      let tbl = Hashtbl.create 8 in
      Array.iter (fun k -> Hashtbl.replace tbl k ()) inserted;
      let visited = List.rev (Hashtbl.fold (fun k () acc -> k :: acc) tbl []) in
      let order =
        Dsm_tmk.Protocol.hashtbl_order (Array.length inserted) (fun i ->
            Hashtbl.hash inserted.(i))
      in
      visited = Array.to_list (Array.map (fun i -> inserted.(i)) order))

let tests =
  [
    Alcotest.test_case "fetch after watermark" `Quick test_fetch_after;
    Alcotest.test_case "many writers, one page" `Quick
      test_many_writers_one_page;
    Alcotest.test_case "GC of fully-applied entries" `Quick
      test_gc_of_applied_entries;
    Alcotest.test_case "entitlement filtering" `Quick test_entitlement;
    Alcotest.test_case "WRITE_ALL supersede" `Quick test_supersede;
    Alcotest.test_case "latest vcsum" `Quick test_latest_vcsum;
    Alcotest.test_case "has_any / writers_of_page" `Quick test_has_any_and_writers;
    Alcotest.test_case "coalescing keeps accounting" `Quick
      test_coalesce_preserves_accounting;
    Alcotest.test_case "apply order by stamp" `Quick test_apply_order;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_store_model; prop_hashtbl_order; prop_dense_cells; prop_fetch_note;
      ]
  @ [
      QCheck_alcotest.to_alcotest prop_retire_flushes;
      Alcotest.test_case "retirement only under single-replica hlrc" `Quick
        test_retire_only_single_replica_hlrc;
    ]
