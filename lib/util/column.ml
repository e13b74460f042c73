type t = { data : bytes; off : int array }

let length c = Array.length c.off - 1

let leaf_length c i =
  if i < 0 || i >= length c then invalid_arg "Column: leaf index out of range";
  c.off.(i + 1) - c.off.(i)

let leaf c i = Bytes.sub c.data c.off.(i) (leaf_length c i)

let equal_leaves c i j =
  let n = leaf_length c i in
  n = leaf_length c j && Bytesx.equal_sub c.data c.off.(i) c.data c.off.(j) n

let alloc n ~size =
  let off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let s = size i in
    if s < 0 then invalid_arg "Column.alloc: negative size";
    off.(i + 1) <- off.(i) + s
  done;
  { data = Bytes.create off.(n); off }

let of_array leaves =
  let c = alloc (Array.length leaves) ~size:(fun i -> Bytes.length leaves.(i)) in
  Array.iteri (fun i b -> Bytes.blit b 0 c.data c.off.(i) (Bytes.length b)) leaves;
  c

let pick c idx = Array.map (leaf c) idx
