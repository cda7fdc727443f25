open Cgc_vm

let nil = 0
let word = 4

let gcm = Machine.gc

(* Run [f] with automatic collection suspended: builders that keep
   intermediate addresses only on the OCaml side (invisible to the
   simulated root set) must not let a collection run mid-construction.
   Builders that thread their intermediates through machine registers
   (alloc_cycle, queue_push) do not need this. *)
let without_auto_collect m f =
  let gc = gcm m in
  let saved = Cgc.Gc.auto_collect gc in
  Cgc.Gc.set_auto_collect gc false;
  Fun.protect ~finally:(fun () -> Cgc.Gc.set_auto_collect gc saved) f

let cons m ~car ~cdr =
  let c = Machine.allocate m (2 * word) in
  Machine.write_field m c 0 car;
  Machine.write_field m c 1 cdr;
  c

let car m c = Machine.read_field m c 0
let cdr m c = Machine.read_field m c 1

let list_of m values =
  (* Build back to front, keeping the partial list in register 1 so it
     survives collections triggered by the next cons. *)
  let saved = Machine.get_register m 1 in
  Machine.set_register m 1 nil;
  List.iter
    (fun v ->
      let c = cons m ~car:v ~cdr:(Machine.get_register m 1) in
      Machine.set_register m 1 (Addr.to_int c))
    (List.rev values);
  let head = Machine.get_register m 1 in
  Machine.set_register m 1 saved;
  Addr.of_int head

let list_values m l =
  let rec go acc c = if c = nil then List.rev acc else go (car m c :: acc) (cdr m c) in
  go [] (Addr.to_int l)

let list_length m l =
  let rec go n c = if c = nil then n else go (n + 1) (cdr m c) in
  go 0 (Addr.to_int l)

let alloc_cycle ?finalizer ?(cell_bytes = 4) m ~n =
  if n < 1 then invalid_arg "Builder.alloc_cycle: need at least one cell";
  if cell_bytes < 4 then invalid_arg "Builder.alloc_cycle: cells hold at least a pointer";
  let saved1 = Machine.get_register m 1 and saved2 = Machine.get_register m 2 in
  let head = Machine.allocate ?finalizer m cell_bytes in
  Machine.set_register m 1 (Addr.to_int head);
  Machine.set_register m 2 (Addr.to_int head);
  let magic = 0xCAFE0000 in
  if cell_bytes >= 8 then Machine.write_field m head 1 magic;
  for _ = 2 to n do
    let cell = Machine.allocate m cell_bytes in
    if cell_bytes >= 8 then Machine.write_field m cell 1 magic;
    (* prev.next <- cell *)
    Machine.write_field m (Addr.of_int (Machine.get_register m 2)) 0 (Addr.to_int cell);
    Machine.set_register m 2 (Addr.to_int cell)
  done;
  (* close the cycle: tail.next <- head *)
  Machine.write_field m (Addr.of_int (Machine.get_register m 2)) 0 (Addr.to_int head);
  Machine.set_register m 1 saved1;
  Machine.set_register m 2 saved2;
  head

let cycle_cells m start =
  let rec go acc c =
    let next = Addr.of_int (Machine.read_field m c 0) in
    if Addr.equal next start then List.rev (c :: acc) else go (c :: acc) next
  in
  go [] start

let atomic_array m values =
  let a = Machine.allocate ~pointer_free:true m (max 1 (Array.length values) * word) in
  Array.iteri (fun i v -> Machine.write_field m a i v) values;
  a

let scanned_array m values =
  let a = Machine.allocate m (max 1 (Array.length values) * word) in
  Array.iteri (fun i v -> Machine.write_field m a i v) values;
  a

(* --- grids --- *)

type grid = {
  rows : int;
  cols : int;
  vertices : Addr.t array;
  headers : Addr.t;
  spine : Addr.t array;
}

(* Embedded representation (figure 3): vertex = [right; down; p0; p1]. *)
let grid_embedded m ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Builder.grid_embedded: empty grid";
  without_auto_collect m (fun () ->
      let vertices = Array.make (rows * cols) Addr.zero in
      for r = 0 to rows - 1 do
        for c = 0 to cols - 1 do
          let v = Machine.allocate m (4 * word) in
          Machine.write_field m v 2 ((r lsl 16) lor c);
          vertices.((r * cols) + c) <- v
        done
      done;
      for r = 0 to rows - 1 do
        for c = 0 to cols - 1 do
          let v = vertices.((r * cols) + c) in
          if c + 1 < cols then Machine.write_field m v 0 (Addr.to_int vertices.((r * cols) + c + 1));
          if r + 1 < rows then Machine.write_field m v 1 (Addr.to_int vertices.(((r + 1) * cols) + c))
        done
      done;
      let headers = Machine.allocate m ((rows + cols) * word) in
      for r = 0 to rows - 1 do
        Machine.write_field m headers r (Addr.to_int vertices.(r * cols))
      done;
      for c = 0 to cols - 1 do
        Machine.write_field m headers (rows + c) (Addr.to_int vertices.(c))
      done;
      { rows; cols; vertices; headers; spine = [||] })

(* Separate representation (figure 4): vertices are pure payload; each
   row and each column is a chain of cons cells carrying vertex
   pointers. *)
let grid_separate m ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Builder.grid_separate: empty grid";
  without_auto_collect m (fun () ->
      let vertices = Array.make (rows * cols) Addr.zero in
      for r = 0 to rows - 1 do
        for c = 0 to cols - 1 do
          let v = Machine.allocate m (2 * word) in
          Machine.write_field m v 0 ((r lsl 16) lor c);
          vertices.((r * cols) + c) <- v
        done
      done;
      let spine = ref [] in
      let chain cells =
        (* cons up a list over [cells], back to front *)
        let rec go next = function
          | [] -> next
          | v :: rest ->
              let c = cons m ~car:(Addr.to_int v) ~cdr:next in
              spine := c :: !spine;
              go (Addr.to_int c) rest
        in
        go nil (List.rev cells)
      in
      let headers = Machine.allocate m ((rows + cols) * word) in
      for r = 0 to rows - 1 do
        let cells = List.init cols (fun c -> vertices.((r * cols) + c)) in
        Machine.write_field m headers r (chain cells)
      done;
      for c = 0 to cols - 1 do
        let cells = List.init rows (fun r -> vertices.((r * cols) + c)) in
        Machine.write_field m headers (rows + c) (chain cells)
      done;
      { rows; cols; vertices; headers; spine = Array.of_list !spine })

(* --- queue --- *)

type queue = {
  q_machine : Machine.t;
  q_header : Addr.t; (* two words: head, tail; must be rooted by the client *)
  mutable q_len : int;
}

let queue_create m =
  let header = Machine.allocate m (2 * word) in
  { q_machine = m; q_header = header; q_len = 0 }

let queue_header q = q.q_header

let queue_push q v =
  let m = q.q_machine in
  (* node = [next; value] *)
  let node = Machine.allocate m (2 * word) in
  Machine.write_field m node 1 v;
  let tail = Machine.read_field m q.q_header 1 in
  if tail = nil then Machine.write_field m q.q_header 0 (Addr.to_int node)
  else Machine.write_field m (Addr.of_int tail) 0 (Addr.to_int node);
  Machine.write_field m q.q_header 1 (Addr.to_int node);
  q.q_len <- q.q_len + 1;
  node

let queue_pop ?(clear_link = false) q =
  let m = q.q_machine in
  let head = Machine.read_field m q.q_header 0 in
  if head = nil then None
  else begin
    let node = Addr.of_int head in
    let next = Machine.read_field m node 0 in
    let v = Machine.read_field m node 1 in
    Machine.write_field m q.q_header 0 next;
    if next = nil then Machine.write_field m q.q_header 1 nil;
    if clear_link then Machine.write_field m node 0 nil;
    q.q_len <- q.q_len - 1;
    Some v
  end

let queue_length q = q.q_len

let queue_nodes q =
  let m = q.q_machine in
  let rec go acc a =
    if a = nil then List.rev acc
    else go (Addr.of_int a :: acc) (Machine.read_field m (Addr.of_int a) 0)
  in
  go [] (Machine.read_field m q.q_header 0)

(* --- trees --- *)

let tree_build m ~depth =
  if depth < 0 then invalid_arg "Builder.tree_build: negative depth";
  without_auto_collect m (fun () ->
      let rec build d =
        let node = Machine.allocate m (3 * word) in
        Machine.write_field m node 2 d;
        if d > 0 then begin
          Machine.write_field m node 0 (Addr.to_int (build (d - 1)));
          Machine.write_field m node 1 (Addr.to_int (build (d - 1)))
        end;
        node
      in
      build depth)

let tree_nodes m root =
  let rec go acc node =
    if node = nil then acc
    else begin
      let acc = Addr.of_int node :: acc in
      let acc = go acc (Machine.read_field m (Addr.of_int node) 0) in
      go acc (Machine.read_field m (Addr.of_int node) 1)
    end
  in
  List.rev (go [] (Addr.to_int root))

let tree_size m root = List.length (tree_nodes m root)
