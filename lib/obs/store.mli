(** The content-addressed file store: [dut serve]'s persistent memo
    tier and [dut run-all]'s checkpoints are entries in it.

    An entry is a payload stored under a key text in a directory. The
    store folds the code identity {!Manifest.code} into every key
    itself: an entry's file name is the MD5 of the identity and the key
    text, and its header names both. A binary built from other sources
    therefore never reads another's entries, and no caller passes a
    stamp.

    On disk an entry is one header line,
    [{"schema":"dut-store/1","code":…,"key":…,"bytes":N,"md5":…}],
    followed by the payload verbatim. {!find} accepts a file only if
    its header line is exactly the one this code would write for this
    key and the bytes that follow it. A truncated, corrupt or foreign
    file (one of another key or of other code) reads as a miss, never
    as another key's payload and never as an exception.

    Entries are written once. The content lands in a private temp file
    and is published with [Unix.link], so readers see a whole entry or
    none, and concurrent writers of one key (shards of a fleet sharing
    a directory, pool workers of one run) leave exactly one intact
    copy: the first. Only an entry that no longer verifies is replaced.

    Safe to call from any domain and any process: the store touches
    only files and the per-domain counters [cache.store_races] and
    [cache.write_failures]. *)

val find : dir:string -> key:string -> string option
(** The payload stored under [key] by this code in [dir], if a
    verified entry exists. *)

val store : dir:string -> key:string -> string -> unit
(** Publish [payload] under [key] in [dir] (created if needed). If a
    verified entry already exists, the store is a counted no-op
    ([cache.store_races]) and the entry is left as it is. A write
    that fails (read-only or full disk) degrades to a one-line stderr
    warning and a [cache.write_failures] tally: callers keep working,
    merely without persistence. *)
