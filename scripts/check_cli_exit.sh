#!/bin/sh
# Check one exit class of the bench and example binaries.
#
# Usage: check_cli_exit.sh CLASS BINARY BAD_VALUE_ARG [BINARY BAD_VALUE_ARG ...]
#
#   help          BINARY --help          must exit 0
#   syntax_error  BINARY --no-such-flag  must exit 1
#   bad_value     BINARY BAD_VALUE_ARG   must exit 1 with a message on
#                                        stderr, not abort (exit 134)
#
# Each binary comes with one flag assignment it must reject as a bad value
# (e.g. --sets=abc); the other classes ignore it.
class=$1
shift
case $class in
  help | syntax_error | bad_value) ;;
  *)
    echo "unknown exit class: $class" >&2
    exit 2
    ;;
esac
status=0
while [ $# -ge 2 ]; do
  bin=$1
  bad=$2
  shift 2
  case $class in
    help) arg=--help want=0 ;;
    syntax_error) arg=--no-such-flag want=1 ;;
    bad_value) arg=$bad want=1 ;;
  esac
  err=$("$bin" "$arg" 2>&1 >/dev/null)
  rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "FAIL: $bin $arg exited $rc, want $want"
    printf '%s\n' "$err" | tail -n 3
    status=1
  elif [ "$class" = bad_value ] && [ -z "$err" ]; then
    echo "FAIL: $bin $arg exited 1 without a message"
    status=1
  else
    echo "ok: $(basename "$bin") $arg -> $rc"
  fi
done
exit $status
