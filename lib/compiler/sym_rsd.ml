type dim = { lo : Lin.t; hi : Lin.t; stride : int }
type t = { dims : dim list; exact : bool }

let make ?(exact = true) l =
  { dims = List.map (fun (lo, hi, stride) -> { lo; hi; stride }) l; exact }

(* Compare two bounds: [`Le], [`Ge] (provable), or [`Probed of bool]
   (decided only under the sample binding). *)
let cmp ~probe a b =
  match Lin.diff_const a b with
  | Some d -> if d <= 0 then `Le else `Ge
  | None -> `Probed (Lin.eval probe a <= Lin.eval probe b)

let min_bound ~probe a b =
  match cmp ~probe a b with
  | `Le -> (a, true)
  | `Ge -> (b, true)
  | `Probed le -> ((if le then a else b), false)

let max_bound ~probe a b =
  match cmp ~probe a b with
  | `Le -> (b, true)
  | `Ge -> (a, true)
  | `Probed le -> ((if le then b else a), false)

let union ~probe a b =
  if List.length a.dims <> List.length b.dims then
    invalid_arg "Sym_rsd.union: dimension mismatch";
  let exact = ref (a.exact && b.exact) in
  let dims =
    List.map2
      (fun da db ->
        let lo, p1 = min_bound ~probe da.lo db.lo in
        let hi, p2 = max_bound ~probe da.hi db.hi in
        if not (p1 && p2) then exact := false;
        let stride =
          if da.stride = db.stride then begin
            (* equal strides guarantee an exact comb union only when the two
               sections are aligned: a lower-bound difference that is not a
               multiple of the stride (red-black's odd reads u even writes)
               leaves elements of one argument outside the result comb *)
            (if da.stride > 1 then
               match Lin.diff_const da.lo db.lo with
               | Some d when d mod da.stride <> 0 -> exact := false
               | Some _ -> ()
               | None ->
                   (* alignment not provable; the probed bound comparison
                      already cleared [exact] *)
                   ());
            da.stride
          end
          else begin
            exact := false;
            1
          end
        in
        { lo; hi; stride })
      a.dims b.dims
  in
  { dims; exact = !exact }

let dim_contains ~probe da db =
  let le a b =
    match cmp ~probe a b with `Le -> true | `Ge -> Lin.equal a b | `Probed le -> le
  in
  le da.lo db.lo && le db.hi da.hi
  && (da.stride = 1 || (da.stride = db.stride && Lin.equal da.lo db.lo))

let contains ~probe a b =
  List.length a.dims = List.length b.dims
  && List.for_all2 (dim_contains ~probe) a.dims b.dims

let inexact t = { t with exact = false }

let eval lookup t =
  Dsm_rsd.Rsd.make ~exact:t.exact
    (List.map (fun d -> (Lin.eval lookup d.lo, Lin.eval lookup d.hi, d.stride)) t.dims)

let pp name ppf t =
  let pp_dim ppf d =
    if d.stride = 1 then Format.fprintf ppf "%a:%a" Lin.pp d.lo Lin.pp d.hi
    else Format.fprintf ppf "%a:%a:%d" Lin.pp d.lo Lin.pp d.hi d.stride
  in
  Format.fprintf ppf "%s[%a]%s" name
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_dim)
    t.dims
    (if t.exact then "" else "~")
