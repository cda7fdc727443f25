type t =
  | Little
  | Big

let equal a b =
  match a, b with
  | Little, Little | Big, Big -> true
  | Little, Big | Big, Little -> false

let to_string = function
  | Little -> "little"
  | Big -> "big"
