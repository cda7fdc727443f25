type t = {
  name : string;
  size_bytes : int;
  pointer_offsets : int array;
}

let make ~name ~size_bytes ~pointer_offsets =
  if size_bytes <= 0 then invalid_arg "Type_desc.make: non-positive size";
  let offsets = Array.of_list pointer_offsets in
  Array.iteri
    (fun i off ->
      if off mod 4 <> 0 then invalid_arg "Type_desc.make: unaligned pointer offset";
      if off < 0 || off + 4 > size_bytes then
        invalid_arg "Type_desc.make: pointer offset out of bounds";
      if i > 0 && offsets.(i - 1) >= off then
        invalid_arg "Type_desc.make: pointer offsets must be strictly increasing")
    offsets;
  { name; size_bytes; pointer_offsets = offsets }

let atomic ~name ~size_bytes = make ~name ~size_bytes ~pointer_offsets:[]
let is_atomic t = Array.length t.pointer_offsets = 0
let cons = make ~name:"cons" ~size_bytes:8 ~pointer_offsets:[ 0; 4 ]
let link_cell = make ~name:"link-cell" ~size_bytes:4 ~pointer_offsets:[ 0 ]
