type array_info = {
  name : string;
  base : int;
  elem_size : int;
  extents : int array;
}

type t = { arr : array_info; rsd : Rsd.t }

let make arr rsd =
  if Rsd.ndims rsd <> Array.length arr.extents then
    invalid_arg "Section.make: dimension mismatch";
  { arr; rsd }

let whole arr =
  let rsd =
    Rsd.make (Array.to_list arr.extents |> List.map (fun e -> (0, e - 1, 1)))
  in
  { arr; rsd }

let addr_of_index arr idx =
  let n = Array.length arr.extents in
  let off = ref 0 in
  for d = n - 1 downto 0 do
    off := (!off * arr.extents.(d)) + idx.(d)
  done;
  arr.base + (!off * arr.elem_size)

let size_bytes t = Rsd.size t.rsd * t.arr.elem_size

(* Enumerate contiguous runs: the innermost dimension produces a run when its
   stride is 1; outer dimensions multiply the number of runs. *)
let ranges t =
  if Rsd.is_empty t.rsd then Range.empty
  else begin
    let dims = t.rsd.Rsd.dims in
    let n = Array.length dims in
    let acc = ref [] in
    let idx = Array.make n 0 in
    let d0 = dims.(0) in
    let inner_run = d0.Rsd.stride = 1 in
    let rec go d =
      if d = 0 then
        if inner_run then begin
          idx.(0) <- d0.Rsd.lo;
          let lo = addr_of_index t.arr idx in
          let hi = lo + ((d0.Rsd.hi - d0.Rsd.lo + 1) * t.arr.elem_size) in
          acc := (lo, hi) :: !acc
        end
        else begin
          let i = ref d0.Rsd.lo in
          while !i <= d0.Rsd.hi do
            idx.(0) <- !i;
            let lo = addr_of_index t.arr idx in
            acc := (lo, lo + t.arr.elem_size) :: !acc;
            i := !i + d0.Rsd.stride
          done
        end
      else begin
        let dd = dims.(d) in
        let i = ref dd.Rsd.lo in
        while !i <= dd.Rsd.hi do
          idx.(d) <- !i;
          go (d - 1);
          i := !i + dd.Rsd.stride
        done
      end
    in
    go (n - 1);
    Range.normalize !acc
  end

let inter_ranges a b = Range.inter (ranges a) (ranges b)

let union_ranges l = Range.normalize (List.concat_map ranges l)
let is_contiguous t = Range.is_contiguous (ranges t)

let pp ppf t =
  Format.fprintf ppf "%s%a" t.arr.name Rsd.pp t.rsd
