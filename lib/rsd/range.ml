type t = (int * int) list

let empty = []
let of_interval lo hi = if hi <= lo then [] else [ (lo, hi) ]

(* intervals ordered by [lo], then [hi]: a typed comparison instead of
   polymorphic [compare] on the pairs *)
let compare_interval ((lo1 : int), (hi1 : int)) (lo2, hi2) =
  if lo1 <> lo2 then Int.compare lo1 lo2 else Int.compare hi1 hi2

let normalize l =
  let l = List.filter (fun (lo, hi) -> hi > lo) l in
  let l = List.sort compare_interval l in
  let rec merge = function
    | [] -> []
    | [ x ] -> [ x ]
    | (lo1, hi1) :: (lo2, hi2) :: rest ->
        if lo2 <= hi1 then merge ((lo1, max hi1 hi2) :: rest)
        else (lo1, hi1) :: merge ((lo2, hi2) :: rest)
  in
  merge l

let union a b = normalize (a @ b)

let inter a b =
  let rec go a b acc =
    match (a, b) with
    | [], _ | _, [] -> List.rev acc
    | (lo1, hi1) :: ta, (lo2, hi2) :: tb ->
        let lo = max lo1 lo2
        and hi = min hi1 hi2 in
        let acc = if hi > lo then (lo, hi) :: acc else acc in
        if hi1 < hi2 then go ta b acc else go a tb acc
  in
  go a b []

let diff a b =
  let rec go a b acc =
    match (a, b) with
    | [], _ -> List.rev acc
    | _, [] -> List.rev_append acc a
    | (lo1, hi1) :: ta, (lo2, hi2) :: tb ->
        if hi2 <= lo1 then go a tb acc
        else if hi1 <= lo2 then go ta b ((lo1, hi1) :: acc)
        else
          (* overlap *)
          let acc = if lo1 < lo2 then (lo1, lo2) :: acc else acc in
          if hi1 <= hi2 then go ta b acc
          else go ((hi2, hi1) :: ta) tb acc
  in
  go a b []

let size t = List.fold_left (fun acc (lo, hi) -> acc + hi - lo) 0 t
let subset a b = diff a b = []
let is_empty t = t = []
let mem x t = List.exists (fun (lo, hi) -> x >= lo && x < hi) t
let covers t ~lo ~hi = hi <= lo || List.exists (fun (l, h) -> l <= lo && hi <= h) t
let iter t f = List.iter (fun (lo, hi) -> f ~lo ~hi) t

let pages ~page_size t =
  (* the intervals are sorted and disjoint, so pages come out ascending;
     only the boundary between consecutive intervals can repeat a page *)
  let acc = ref [] in
  let last = ref min_int in
  List.iter
    (fun (lo, hi) ->
      let p0 = lo / page_size
      and p1 = (hi - 1) / page_size in
      let p0 = if p0 <= !last then !last + 1 else p0 in
      for p = p0 to p1 do
        acc := p :: !acc
      done;
      if p1 > !last then last := p1)
    t;
  List.rev !acc

let clip_to_page ~page_size ~page t =
  inter t (of_interval (page * page_size) ((page + 1) * page_size))

let is_contiguous = function [] | [ _ ] -> true | _ -> false

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf (lo, hi) -> Format.fprintf ppf "[%d,%d)" lo hi))
    t
