(** Fixed-size bit sets.

    Used for mark bits, object-allocation maps and the page blacklist —
    the paper recommends implementing the blacklist "as a bit array,
    indexed by page numbers". *)

type t = private {
  n : int;  (** the universe is [\[0, n)] *)
  words : int array;
      (** The members, 62 to a word: element [i] is bit [i mod 62] of
          [words.(i / 62)].  Bits 62 and up, and the bits past [n] in
          the last word, are always clear.  The layout is part of the
          interface so that hot loops in other compilation units can
          test and set members with inline word arithmetic instead of a
          call per bit; such a caller must keep indices below [n]. *)
}

val bits_per_word : int
(** 62: members per word of [words]. *)

val create : int -> t
(** [create n] is a set over the universe [\[0, n)], initially empty. *)

val of_words : n:int -> int array -> t
(** [of_words ~n words] is the set over [\[0, n)] whose members are
    [words], shared, not copied: updates through either side are seen
    by the other.  [words] must have the length {!create} gives and keep
    the bits past [n] clear.  @raise Invalid_argument on a length
    mismatch. *)

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val set : t -> int -> bool -> unit

val clear : t -> unit
(** Remove every element. *)

(** {1 Word-array forms}

    The operations on a bare [words] array, for callers that keep the
    words without the record (the heap's page table); the {!t} forms
    delegate to these.  No bounds check: the caller keeps indices below
    its universe. *)

val mem_words : int array -> int -> bool
val add_words : int array -> int -> unit
val remove_words : int array -> int -> unit
val clear_words : int array -> unit
val count_words : int array -> int
val iter_set_words : int array -> (int -> unit) -> unit

val count : t -> int
(** Number of elements currently in the set. *)

val is_empty : t -> bool

val copy : t -> t

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] adds every element of [src] to [dst].
    Universes must have equal size. *)

val iter : (int -> unit) -> t -> unit
(** Iterate over members in increasing order. *)

val iter_set : t -> (int -> unit) -> unit
(** Same as {!iter} with the hot-path argument order: visits members in
    increasing order by scanning whole words and extracting trailing-zero
    runs, so sparse sets cost one test per word plus one step per member.
    The visitor may change the set: each index is visited when it is a
    member as the walk reaches it, so a member added above the current
    one is visited and one removed is not.  Used by the generational
    page walk and by mark-stack overflow recovery, whose rescans mark
    more objects on the page they walk. *)

(** Survivor and casualty tallies of {!sweep}, added to across calls. *)
type sweep_counts = {
  mutable kept : int;
  mutable dropped : int;
}

val sweep : ?dead:(int -> unit) -> alloc:t -> mark:t -> sweep_counts -> unit
(** [sweep ~alloc ~mark counts] keeps in [alloc] exactly its members
    that are also in [mark], empties [mark], and adds the number of
    members kept and dropped to [counts].  Works a word at a time with
    a constant-time popcount: nothing is done per member unless [dead]
    is given, in which case it is called on every dropped member, in
    increasing order, before the word is stored.  Allocation-free
    without [dead].  Universes must have equal size. *)

val sweep_words :
  ?dead:(int -> unit) -> alloc:int array -> mark:int array -> sweep_counts -> unit

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

val pp : Format.formatter -> t -> unit
