(** EINTR-retrying wrappers for the raw syscalls on the serving and
    persistence paths.  A signal landing mid-call (watchdog timers,
    chaos drills, job control) restarts the call instead of surfacing
    [Unix_error (EINTR, _, _)] as a spurious failure.

    The write-side helpers announce {!Fault.io_event} ["unix.write"]
    before each attempt, so when the strict-I/O lint is armed every
    socket/log write is checked for an enclosing checkpoint scope. *)

val read : Unix.file_descr -> bytes -> int -> int -> int
val write : Unix.file_descr -> bytes -> int -> int -> int
val write_substring : Unix.file_descr -> string -> int -> int -> int
val accept : ?cloexec:bool -> Unix.file_descr -> Unix.file_descr * Unix.sockaddr

val write_all : Unix.file_descr -> bytes -> unit
(** Write the whole buffer, retrying on EINTR and short writes;
    raises [Sys_error] if the descriptor stops accepting bytes. *)
