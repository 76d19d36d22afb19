(* Flat representation: [segs] holds, per segment, its page offset and
   length as two native-order 32-bit ints (8 bytes per segment), and
   [data] the payloads back to back in segment order. A diff of a page
   whose changed words alternate with unchanged ones (IS's bucket counts
   change in their low words only) has hundreds of 4-byte segments, so a
   boxed block per segment would cost far more than the payload. *)
type t = { segs : Bytes.t; data : Bytes.t }

module Prof = Dsm_prof.Prof

let empty = { segs = Bytes.empty; data = Bytes.empty }
let nsegments t = Bytes.length t.segs / 8
let is_empty t = nsegments t = 0

external get_32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set_32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let seg_off t i = Int32.to_int (get_32 t.segs (8 * i))
let seg_len t i = Int32.to_int (get_32 t.segs ((8 * i) + 4))

let one_seg ~off data =
  let segs = Bytes.create 8 in
  set_32 segs 0 (Int32.of_int off);
  set_32 segs 4 (Int32.of_int (Bytes.length data));
  { segs; data }

(* Output buffers of [create] and [merge], grown to the largest page seen.
   A page of [n] bytes has at most [n/2 + 1] runs (runs are separated by
   at least one unchanged byte), so [segs_out] needs [4n + 8] bytes; the
   result is cut to size with two [Bytes.sub]. Slices never interleave
   (the engine runs one at a time), so one buffer pair is enough. *)
let segs_out = ref Bytes.empty
let data_out = ref Bytes.empty

let reserve n =
  if Bytes.length !data_out < n then begin
    segs_out := Bytes.create ((4 * n) + 8);
    data_out := Bytes.create n
  end

(* Append the run [src.[off, off+len)] to the output buffers. *)
let emit ~nsegs ~ndata src off len =
  let s = 8 * !nsegs in
  set_32 !segs_out s (Int32.of_int off);
  set_32 !segs_out (s + 4) (Int32.of_int len);
  Bytes.blit src off !data_out !ndata len;
  incr nsegs;
  ndata := !ndata + len

let finish ~nsegs ~ndata =
  if !nsegs = 0 then empty
  else
    {
      segs = Bytes.sub !segs_out 0 (8 * !nsegs);
      data = Bytes.sub !data_out 0 !ndata;
    }

(* TreadMarks compares twin and copy at 32-bit word granularity; diffs are
   runs of changed words. *)
(* Unchecked native-order reads for the word-compare scan: offsets are
   bounded by the loop condition, and equality of same-offset words is
   independent of byte order, so these are safe on any host. *)
external unsafe_get_64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let create ~twin ~current =
  Prof.enter Prof.Diff_create;
  let n = Bytes.length current in
  assert (Bytes.length twin = n && n mod 4 = 0);
  reserve n;
  let words = n / 4 in
  let differs w = get_32 twin (4 * w) <> get_32 current (4 * w) in
  let nsegs = ref 0 and ndata = ref 0 in
  let w = ref 0 in
  while !w < words do
    (* fast path: one 64-bit compare skips two equal words — the bulk of a
       page is usually unchanged *)
    if
      !w + 1 < words
      && unsafe_get_64 twin (4 * !w) = unsafe_get_64 current (4 * !w)
    then w := !w + 2
    else if differs !w then begin
      let start = !w in
      while !w < words && differs !w do
        incr w
      done;
      emit ~nsegs ~ndata current (4 * start) (4 * (!w - start))
    end
    else incr w
  done;
  let d = finish ~nsegs ~ndata in
  Prof.exit Prof.Diff_create;
  d

let full page = one_seg ~off:0 (Bytes.copy page)

let of_range page ~off ~len =
  if len <= 0 then empty else one_seg ~off (Bytes.sub page off len)

external unsafe_set_64 : Bytes.t -> int -> int64 -> unit
  = "%caml_bytes_set64u"

(* A diff's segments are ascending and disjoint, so the last one ends
   furthest: checking it first leaves [dst] untouched when the diff does
   not fit. Each segment is still bounds-checked before its unchecked
   copy. Most segments are one or two words (IS's bucket counts change in
   their low words only), so those are moved with a single load and store
   instead of a [Bytes.blit] call. *)
let apply t dst =
  let n = nsegments t in
  let dlen = Bytes.length dst in
  if n > 0 && seg_off t (n - 1) > dlen - seg_len t (n - 1) then
    invalid_arg "Bytes.blit";
  Prof.enter Prof.Diff_apply;
  let data = t.data in
  let pos = ref 0 in
  for i = 0 to n - 1 do
    let off = seg_off t i and len = seg_len t i in
    if off < 0 || len < 0 || off > dlen - len then begin
      Prof.exit Prof.Diff_apply;
      invalid_arg "Bytes.blit"
    end;
    (match len with
    | 4 -> set_32 dst off (get_32 data !pos)
    | 8 -> unsafe_set_64 dst off (unsafe_get_64 data !pos)
    | _ -> Bytes.blit data !pos dst off len);
    pos := !pos + len
  done;
  Prof.exit Prof.Diff_apply

(* Reusable scratch for [merge], grown to the largest page size seen:
   merging is frequent enough that two page-sized allocations per call
   showed up in allocation profiles. *)
let merge_scratch = ref Bytes.empty
let merge_mask = ref Bytes.empty

let merge older newer ~page_size =
  if is_empty older then newer
  else if is_empty newer then older
  else begin
    Prof.enter Prof.Diff_create;
    if Bytes.length !merge_scratch < page_size then begin
      merge_scratch := Bytes.create page_size;
      merge_mask := Bytes.create page_size
    end;
    reserve page_size;
    let scratch = !merge_scratch
    and mask = !merge_mask in
    Bytes.fill mask 0 page_size '\000';
    let overlay d =
      let pos = ref 0 in
      for i = 0 to nsegments d - 1 do
        let off = seg_off d i and len = seg_len d i in
        Bytes.blit d.data !pos scratch off len;
        Bytes.fill mask off len '\001';
        pos := !pos + len
      done
    in
    overlay older;
    overlay newer;
    let nsegs = ref 0 and ndata = ref 0 in
    let i = ref 0 in
    while !i < page_size do
      if Bytes.unsafe_get mask !i = '\001' then begin
        let start = !i in
        while !i < page_size && Bytes.unsafe_get mask !i = '\001' do
          incr i
        done;
        emit ~nsegs ~ndata scratch start (!i - start)
      end
      else incr i
    done;
    let d = finish ~nsegs ~ndata in
    Prof.exit Prof.Diff_create;
    d
  end

let size_bytes t = Bytes.length t.data

let segments t =
  let acc = ref [] and pos = ref 0 in
  for i = 0 to nsegments t - 1 do
    let len = seg_len t i in
    acc := (seg_off t i, Bytes.sub_string t.data !pos len) :: !acc;
    pos := !pos + len
  done;
  List.rev !acc

let covers_page t ~page_size =
  nsegments t = 1 && seg_off t 0 = 0 && seg_len t 0 = page_size

let pp ppf t =
  Format.fprintf ppf "diff<%d segs, %d B>" (nsegments t) (size_bytes t)
