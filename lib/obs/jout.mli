(** Minimal JSON construction, serialisation and parsing.

    The exporters write JSON (Chrome traces, stats.json, BENCH_vm.json)
    and the bench checker reads it back, so this one module owns the
    format; a small value type, printer and parser avoid a dependency
    on a JSON library. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. *)

val write_file : string -> t -> unit
(** [write_file path j] writes [to_string j] followed by a newline. *)

val of_string : string -> (t, string) result
(** Parse one JSON value, with optional surrounding whitespace.  A number
    without [.], [e] or [E] is an [Int], any other a [Float].  String
    escapes are exactly those [to_string] writes: a backslash before a
    quote, a backslash, [n], [r] or [t], and [u] with four hex digits
    naming an ASCII code point.  [Error] names the byte offset of the
    first malformed token. *)
