#!/bin/sh
# `aesip encrypt|decrypt` end to end, run as a ctest: a 100-byte file
# through every engine and mode must give the ttable engine's bytes and
# decrypt back to the input (AES-256 on the sw and behavioral engines,
# against sw), the ttable engine must give the FIPS-197 Appendix B
# ciphertext, a ciphertext that is not whole blocks must be refused
# with exit 1 and a message, and so must an option encrypt does not read
# (a typo such as --mdoe, or the removed --batch), before any file is
# written.
#
# Usage: check_crypt.sh /path/to/aesip
set -u

aesip=${1:?usage: check_crypt.sh /path/to/aesip}
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
fail=0
iv=f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff
k128=000102030405060708090a0b0c0d0e0f
k256=${k128}101112131415161718191a1b1c1d1e1f
awk 'BEGIN { for (i = 0; i < 100; i++) printf "%c", 33 + (i * 7) % 90 }' > "$dir/in"

# crypt OP ENGINE MODE KEY IN OUT
crypt() {
  if ! "$aesip" "$1" --engine "$2" --mode "$3" --key "$4" --iv "$iv" \
       --in "$5" --out "$6" > "$dir/log" 2>&1; then
    echo "check_crypt: $1 --engine $2 --mode $3 (${#4}-digit key) failed:" >&2
    cat "$dir/log" >&2
    fail=1
    return 1
  fi
}

# sweep KEY REFERENCE_ENGINE ENGINE...
sweep() {
  key=$1
  ref=$2
  shift 2
  for mode in ecb cbc ctr; do
    crypt encrypt "$ref" "$mode" "$key" "$dir/in" "$dir/ref" || continue
    for eng in "$@"; do
      out=$dir/$eng.$mode.${#key}
      crypt encrypt "$eng" "$mode" "$key" "$dir/in" "$out" || continue
      if ! cmp -s "$out" "$dir/ref"; then
        echo "check_crypt: $eng $mode (${#key}-digit key) differs from $ref" >&2
        fail=1
      fi
      crypt decrypt "$eng" "$mode" "$key" "$out" "$out.back" || continue
      if ! cmp -s "$out.back" "$dir/in"; then
        echo "check_crypt: $eng $mode (${#key}-digit key) does not decrypt back" >&2
        fail=1
      fi
    done
  done
}

sweep "$k128" ttable ttable sw behavioral netlist
sweep "$k256" sw sw behavioral

# FIPS-197 Appendix B: the first ECB block is the published ciphertext.
printf '\062\103\366\250\210\132\060\215\061\061\230\242\340\067\007\064' > "$dir/fips"
if crypt encrypt ttable ecb 2b7e151628aed2a6abf7158809cf4f3c "$dir/fips" "$dir/fips.enc"; then
  got=$(od -An -tx1 -N16 "$dir/fips.enc" | tr -d ' \n')
  if [ "$got" != 3925841d02dc09fbdc118597196a0b32 ]; then
    echo "check_crypt: FIPS-197 Appendix B gave $got" >&2
    fail=1
  fi
fi

# A 17-byte ECB or CBC ciphertext is not whole blocks.
head -c 17 "$dir/in" > "$dir/short"
for mode in ecb cbc; do
  for eng in ttable behavioral; do
    "$aesip" decrypt --engine "$eng" --mode "$mode" --key "$k128" \
      --in "$dir/short" --out "$dir/short.out" > /dev/null 2> "$dir/err"
    status=$?
    if [ "$status" -ne 1 ] || [ ! -s "$dir/err" ]; then
      echo "check_crypt: 17-byte $mode on $eng exited $status, stderr:" >&2
      cat "$dir/err" >&2
      fail=1
    fi
  done
done

# An unknown option would otherwise be ignored: --mdoe ecb would encrypt CBC.
for bad in "--mdoe ecb" "--batch 4"; do
  # shellcheck disable=SC2086  # $bad is an option and its value
  "$aesip" encrypt $bad --key "$k128" --in "$dir/in" --out "$dir/typo.out" \
    > /dev/null 2> "$dir/err"
  status=$?
  if [ "$status" -ne 1 ] || [ -e "$dir/typo.out" ] ||
     ! grep -qF "unknown option ${bad% *} for encrypt" "$dir/err"; then
    echo "check_crypt: encrypt $bad exited $status, stderr:" >&2
    cat "$dir/err" >&2
    fail=1
  fi
  rm -f "$dir/typo.out"
done

if [ "$fail" -ne 0 ]; then
  echo "check_crypt: FAILED" >&2
  exit 1
fi
echo "check_crypt: ok"
