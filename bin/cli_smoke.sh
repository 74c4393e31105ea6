#!/bin/sh
# Command-line checks of asapc, run by `dune runtest`:
# - `asapc gen` prints the nnz of the matrix it writes (duplicates
#   summed), the count in the written file's header;
# - `asapc run --matrix` turns a malformed or missing file into a usage
#   error (exit 124) that names the file.
# Usage: cli_smoke.sh ASAPC
set -u
asapc=$1
case $asapc in */*) ;; *) asapc=./$asapc ;; esac
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
fail() { echo "cli_smoke: $*" >&2; exit 1; }

out=$("$asapc" gen -g powerlaw:2000,8 -o "$dir/gen.mtx") || fail "gen: exit $?"
printed=$(echo "$out" | sed -n 's/.*, \([0-9]*\) nnz)$/\1/p')
header=$(sed -n 2p "$dir/gen.mtx" | cut -d ' ' -f 3)
[ -n "$printed" ] && [ "$printed" = "$header" ] ||
  fail "gen printed '$printed' nnz, the header says '$header'"

printf '%%%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 1 2.0\n' \
  > "$dir/dup.mtx"
for f in "$dir/dup.mtx" "$dir/missing.mtx"; do
  "$asapc" run --matrix "$f" > /dev/null 2> "$dir/err"
  code=$?
  [ "$code" -eq 124 ] || fail "run --matrix $f: exit $code, want 124"
  grep -q "$f" "$dir/err" || fail "run --matrix $f: the error does not name the file"
done
