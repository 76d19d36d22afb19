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

let set_seg segs i ~off ~len =
  set_32 segs (8 * i) (Int32.of_int off);
  set_32 segs ((8 * i) + 4) (Int32.of_int len)

let one_seg ~off data =
  let segs = Bytes.create 8 in
  set_seg segs 0 ~off ~len:(Bytes.length data);
  { segs; data }

external unsafe_get_64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external unsafe_set_64 : Bytes.t -> int -> int64 -> unit
  = "%caml_bytes_set64u"

(* Copy [len] bytes from [src] at [pos] to [dst] at [dpos]. Most runs are
   one or two words (IS's bucket counts change in their low words only),
   so those are moved with a single load and store instead of a
   [Bytes.blit] call. Unchecked: callers bound both ranges. *)
let copy_run src pos dst dpos len =
  match len with
  | 4 -> set_32 dst dpos (get_32 src pos)
  | 8 -> unsafe_set_64 dst dpos (unsafe_get_64 src pos)
  | _ -> Bytes.blit src pos dst dpos len

(* Output buffers of [create] and [merge], grown to the largest diff seen
   and cut to size with two [Bytes.sub] by [finish]. Slices never
   interleave (the engine runs one at a time), so one buffer pair is
   enough. *)
let segs_out = ref Bytes.empty
let data_out = ref Bytes.empty

(* [Stdlib.min]/[max] are polymorphic: a compare call per use. *)
let imin (a : int) b = if a <= b then a else b
let imax (a : int) b = if a >= b then a else b

let reserve ~nsegs ~ndata =
  if Bytes.length !segs_out < 8 * nsegs then
    segs_out := Bytes.create (imax (8 * nsegs) (2 * Bytes.length !segs_out));
  if Bytes.length !data_out < ndata then
    data_out := Bytes.create (imax ndata (2 * Bytes.length !data_out))

let finish ~nsegs ~ndata =
  if nsegs = 0 then empty
  else
    {
      segs = Bytes.sub !segs_out 0 (8 * nsegs);
      data = Bytes.sub !data_out 0 ndata;
    }

(* TreadMarks compares twin and copy at 32-bit word granularity; diffs are
   maximal runs of changed words. The scan moves by byte offset: one
   64-bit compare skips each equal pair of words (the bulk of a page is
   usually unchanged), and a changed run is extended one 32-bit compare
   at a time. Reads are unchecked: offsets are bounded by the loop
   conditions, and equality of same-offset words is independent of byte
   order. *)
let create ~twin ~current =
  Prof.enter Prof.Diff_create;
  let n = Bytes.length current in
  assert (Bytes.length twin = n && n mod 4 = 0);
  (* runs are separated by at least one unchanged word *)
  reserve ~nsegs:((n / 8) + 1) ~ndata:n;
  let segs = !segs_out and data = !data_out in
  let nsegs = ref 0 and ndata = ref 0 in
  let i = ref 0 in
  while !i < n do
    if !i + 8 <= n && unsafe_get_64 twin !i = unsafe_get_64 current !i then
      i := !i + 8
    else if get_32 twin !i = get_32 current !i then i := !i + 4
    else begin
      let start = !i in
      i := !i + 4;
      while !i < n && get_32 twin !i <> get_32 current !i do
        i := !i + 4
      done;
      let len = !i - start in
      set_seg segs !nsegs ~off:start ~len;
      copy_run current start data !ndata len;
      incr nsegs;
      ndata := !ndata + len
    end
  done;
  let d = finish ~nsegs:!nsegs ~ndata:!ndata in
  Prof.exit Prof.Diff_create;
  d

(* The slots of a page of [slot_size]-byte objects whose bytes differ
   between twin and copy, ascending. Each slot is scanned one 64-bit word
   at a time up to its first difference; [slot_size] is a multiple of 8
   dividing the page (checked by the object allocator), so no slot has
   a byte tail. *)
let changed_slots ~twin ~current ~slot_size =
  let n = Bytes.length current in
  if
    Bytes.length twin <> n || slot_size <= 0 || slot_size mod 8 <> 0
    || n mod slot_size <> 0
  then invalid_arg "Diff.changed_slots";
  let acc = ref [] in
  for s = (n / slot_size) - 1 downto 0 do
    let i = ref (s * slot_size) in
    let stop = !i + slot_size in
    while !i < stop && unsafe_get_64 twin !i = unsafe_get_64 current !i do
      i := !i + 8
    done;
    if !i < stop then acc := s :: !acc
  done;
  !acc

let full page = one_seg ~off:0 (Bytes.copy page)

let of_range page ~off ~len =
  if len <= 0 then empty else one_seg ~off (Bytes.sub page off len)

(* Every constructor yields ascending, disjoint segments (see the
   interface), so every segment lies in [\[first offset, last end)]:
   one check of those two bounds covers all the unchecked copies, and
   leaves [dst] untouched when the diff does not fit. On a little-endian
   host a segment's (offset, length) pair is one 64-bit load, offset in
   the low half; both fields are below 2^31, so the load's top bit, which
   [Int64.to_int] drops, is clear. *)
let apply t dst =
  let n = nsegments t in
  if
    n > 0
    && (seg_off t 0 < 0
       || seg_off t (n - 1) > Bytes.length dst - seg_len t (n - 1))
  then invalid_arg "Bytes.blit";
  Prof.enter Prof.Diff_apply;
  let segs = t.segs and data = t.data in
  let pos = ref 0 in
  if Sys.big_endian then
    for i = 0 to n - 1 do
      let len = seg_len t i in
      copy_run data !pos dst (seg_off t i) len;
      pos := !pos + len
    done
  else
    for i = 0 to n - 1 do
      let w = Int64.to_int (unsafe_get_64 segs (8 * i)) in
      let len = w lsr 32 in
      copy_run data !pos dst (w land 0xFFFF_FFFF) len;
      pos := !pos + len
    done;
  Prof.exit Prof.Diff_apply

(* One walk of the two ascending segment lists. The output is the union of
   the covered bytes as maximal runs — pieces that touch fuse — with
   [newer]'s bytes wherever both cover a byte: each newer segment goes out
   whole, and older bytes only below the next newer segment and past
   [cur], the end of everything emitted so far. Older segment [i] is the
   first one ending past [cur]; [bpos] is the payload offset of newer
   segment [j]. *)
let merge older newer =
  if is_empty older then newer
  else if is_empty newer then older
  else begin
    Prof.enter Prof.Diff_create;
    let na = nsegments older and nb = nsegments newer in
    reserve ~nsegs:(na + nb)
      ~ndata:(Bytes.length older.data + Bytes.length newer.data);
    let segs = !segs_out and data = !data_out in
    let nsegs = ref 0 and ndata = ref 0 and last_end = ref (-1) in
    let put src pos ~off ~len =
      if len > 0 then begin
        copy_run src pos data !ndata len;
        if off = !last_end then begin
          let s = (8 * (!nsegs - 1)) + 4 in
          set_32 segs s (Int32.add (get_32 segs s) (Int32.of_int len))
        end
        else begin
          set_seg segs !nsegs ~off ~len;
          incr nsegs
        end;
        last_end := off + len;
        ndata := !ndata + len
      end
    in
    (* older segment [i] spans [astart, aend) (both [max_int] once the
       older segments run out) and its payload starts at [apos] *)
    let i = ref 0 and apos = ref 0 in
    let astart = ref (seg_off older 0) in
    let aend = ref (!astart + seg_len older 0) in
    let j = ref 0 and bpos = ref 0 in
    let cur = ref (-1) in
    while !j < nb || !i < na do
      let boff = if !j < nb then seg_off newer !j else max_int in
      let aoff = imax !cur !astart in
      if aoff < boff then begin
        let stop = imin !aend boff in
        put older.data (!apos + aoff - !astart) ~off:aoff ~len:(stop - aoff);
        cur := stop
      end
      else begin
        let blen = seg_len newer !j in
        put newer.data !bpos ~off:boff ~len:blen;
        bpos := !bpos + blen;
        incr j;
        cur := boff + blen
      end;
      while !aend <= !cur do
        apos := !apos + !aend - !astart;
        incr i;
        if !i < na then begin
          astart := seg_off older !i;
          aend := !astart + seg_len older !i
        end
        else begin
          astart := max_int;
          aend := max_int
        end
      done
    done;
    let d = finish ~nsegs:!nsegs ~ndata:!ndata in
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
