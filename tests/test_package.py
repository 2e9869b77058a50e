"""The package's top level: each module is loaded on first use of one of its
names, every exported name is its home module's own object, and README's
library example runs."""

import contextlib
import importlib
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import smoothlm

ROOT = Path(__file__).resolve().parents[1]
HOMES = ["corpus", "decompose", "neural", "ngram", "smoothers", "verify"]


def loaded_in_fresh_interpreter(code: str) -> list[str]:
    """The smoothlm modules in sys.modules after `code` runs in a new
    interpreter that finds the package under src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    probe = (code + "\nimport sys\n"
             "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'smoothlm'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    return out.split()


def test_importing_corpus_loads_only_corpus(tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b\nb a\n", encoding="utf-8")
    code = f"import smoothlm.corpus\nsmoothlm.corpus.load_corpus({str(corpus)!r})"
    assert loaded_in_fresh_interpreter(code) == ["smoothlm", "smoothlm.corpus"]


def test_count_command_loads_only_what_it_runs(tmp_path):
    # count reads a corpus and writes its table: no smoother, model,
    # decomposition or check module is loaded, and ngram only for the class
    # of the error that exits 3
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b\nb a\n", encoding="utf-8")
    argv = ["count", "--corpus", str(corpus), "--order", "2", "--out", str(tmp_path / "c.tsv")]
    code = ("import contextlib, io, smoothlm.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert smoothlm.cli.main({argv!r}) == 0")
    assert loaded_in_fresh_interpreter(code) == ["smoothlm", "smoothlm.cli", "smoothlm.corpus",
                                                 "smoothlm.ngram"]


def test_importing_the_package_loads_no_module():
    assert loaded_in_fresh_interpreter("import smoothlm") == ["smoothlm"]


@pytest.mark.parametrize("name", smoothlm.__all__)
def test_each_export_is_its_home_modules_object(name):
    obj = getattr(smoothlm, name)
    assert obj.__module__ in {f"smoothlm.{m}" for m in HOMES}
    assert getattr(sys.modules[obj.__module__], name) is obj


@pytest.mark.parametrize("home", HOMES)
def test_each_home_module_is_an_attribute(home):
    assert getattr(smoothlm, home) is importlib.import_module(f"smoothlm.{home}")


def test_dir_lists_the_exports():
    assert set(smoothlm.__all__) <= set(dir(smoothlm))
    assert set(HOMES) <= set(dir(smoothlm))


def test_star_import_binds_every_name():
    names = {}
    exec("from smoothlm import *", names)
    assert set(smoothlm.__all__) <= set(names)


def test_a_rebound_name_is_read_off_its_home_module(monkeypatch):
    def stand_in(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(smoothlm.smoothers, "smooth", stand_in)
    assert smoothlm.smooth is stand_in
    monkeypatch.undo()
    assert smoothlm.smooth is not stand_in


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        smoothlm.no_such_name


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    values = [float(v) for v in out.getvalue().split()]
    assert len(values) == 2 and all(math.isfinite(v) and v >= 1 for v in values)
