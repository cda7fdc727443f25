type policy =
  | Lifo
  | Address_ordered

type t = {
  policy : policy;
  lists : int list array; (* index = granules, slot 0 unused *)
}

let create ~n_classes policy = { policy; lists = Array.make (n_classes + 1) [] }

let check t granules =
  if granules < 1 || granules >= Array.length t.lists then
    invalid_arg (Printf.sprintf "Free_list: class %d out of range" granules)

let take t ~granules =
  check t granules;
  match t.lists.(granules) with
  | [] -> None
  | a :: rest ->
      t.lists.(granules) <- rest;
      Some a

let rec insert_sorted a = function
  | [] -> [ a ]
  | b :: rest as l -> if a <= b then a :: l else b :: insert_sorted a rest

let add t ~granules a =
  check t granules;
  let items = t.lists.(granules) in
  t.lists.(granules) <-
    (match t.policy with Lifo -> a :: items | Address_ordered -> insert_sorted a items)

let prepend_block t ~granules slots =
  check t granules;
  t.lists.(granules) <- slots @ t.lists.(granules)

let drop_in_page t ~granules ~page_of ~page =
  check t granules;
  t.lists.(granules) <- List.filter (fun a -> page_of a <> page) t.lists.(granules)
