"""Write the standard CLI runs of every bundled scenario into one directory.

    python tools/standard_runs.py OUTDIR

Runs the yprobe under this tree's src/: probe-spectrum on the spectrum
presets with --k-value 250 --json, interference-sweep fig4 --json,
pump-sweeps fig6 and fig8 --json, dressed-evolve fig7 without options and
with --oracle-check --json, and dump-liouvillian on every preset.  Each run
writes its outputs and config under OUTDIR and its stdout to <run>.stdout.
Run it from two trees and `diff -r` the two directories: no output means
every file is byte-identical.
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from yprobe import cli  # noqa: E402
from yprobe.presets import PRESETS  # noqa: E402


def runs():
    """(run name, CLI arguments without --out) of every standard run."""
    for fig in ("fig2a", "fig2b", "fig3", "fig5b", "fig5c"):
        yield f"spectrum_{fig}", ["probe-spectrum", "--preset", fig, "--k-value", "250", "--json"]
    yield "interference_fig4", ["interference-sweep", "--preset", "fig4", "--json"]
    for fig in ("fig6", "fig8"):
        yield f"pumps_{fig}", ["pump-sweeps", "--preset", fig, "--json"]
    yield "evolve_fig7", ["dressed-evolve", "--preset", "fig7"]
    yield "evolve_fig7_oracle", ["dressed-evolve", "--preset", "fig7", "--oracle-check", "--json"]
    for name in PRESETS:
        yield f"liouvillian_{name}", ["dump-liouvillian", "--preset", name]


def main(outdir: str) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for name, argv in runs():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([*argv, "--out", str(out / f"{name}.out")])
        if code:
            sys.exit(f"{name}: yprobe exited with {code}")
        (out / f"{name}.stdout").write_text(stdout.getvalue())


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
