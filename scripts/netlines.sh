#!/bin/sh
# netlines.sh BASE: added, removed and net Go lines per package between the
# git revision BASE and the working tree, untracked files included. Test
# files (_test.go), testdata/ fixtures (which Go tooling ignores), the bench/
# module and everything that is not Go source (Markdown included) are left
# out, so every simplicity change reports the same figure. Run it as
# `make netlines BASE=<rev>`.
set -euf # -f: the pathspecs below are for git, not for shell globbing
base=${1:?usage: netlines.sh <rev>}
cd "$(git rev-parse --show-toplevel)"
spec="*.go :(exclude)*_test.go :(exclude)*/testdata/* :(exclude)bench/"

{
	# shellcheck disable=SC2086 # spec is a word list of pathspecs
	git diff --no-renames --numstat "$base" -- $spec
	# shellcheck disable=SC2086
	git ls-files --others --exclude-standard -- $spec | while read -r f; do
		printf '%s\t0\t%s\n' "$(wc -l <"$f")" "$f"
	done
} | awk -F '\t' '
	{
		pkg = $3
		if (!sub(/\/[^\/]*$/, "", pkg)) pkg = "."
		add[pkg] += $1; del[pkg] += $2
	}
	END { for (p in add) printf "%s\t%d\t%d\t%d\n", p, add[p], del[p], add[p] - del[p] }
' | sort | awk -F '\t' '
	BEGIN { printf "%-28s %7s %7s %7s\n", "package", "added", "removed", "net" }
	{ printf "%-28s %7d %7d %7d\n", $1, $2, $3, $4; a += $2; d += $3 }
	END { printf "%-28s %7d %7d %7d\n", "total", a, d, a - d }
'
