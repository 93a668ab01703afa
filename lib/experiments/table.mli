(** Result tables: the uniform output format of every experiment.

    An experiment produces one or more titled tables; the harness renders
    them column-aligned for the terminal or as CSV. Keeping the cells
    typed (rather than pre-formatted strings) lets tests assert on the
    numbers directly. *)

type cell = Int of int | Float of float | Str of string | Bool of bool

type t = {
  title : string;
  columns : string list;
  rows : cell list list;
  notes : string list;  (** free-form lines printed under the table *)
}

val make : title:string -> columns:string list -> ?notes:string list -> cell list list -> t
(** @raise Invalid_argument if any row's width differs from the header's. *)

val cell_to_string : cell -> string
(** Floats are rendered with up to 4 significant decimals, trimmed;
    non-finite floats (NaN, ±inf) render as ["n/a"] in both the aligned
    and the CSV output. *)

val render : t -> string
(** Column-aligned plain text, ready for the terminal. *)

val to_csv : t -> string
(** RFC-4180-ish CSV (title and notes as comment lines). *)

val get_float : t -> row:int -> col:int -> float
(** Typed accessor for tests: Int cells are widened to float.

    @raise Invalid_argument on out-of-range indices or a non-numeric
    cell. *)

val column_floats : t -> col:int -> float array
(** All numeric values of one column (skipping non-numeric cells). *)
