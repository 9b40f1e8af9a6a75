"""Documentation consistency guards.

These tests keep the docs honest: every public item carries a docstring,
every experiment id in the registry is indexed in DESIGN.md and
EXPERIMENTS.md, and every bench file named there exists.
"""

import importlib
import inspect
import pathlib
import pkgutil

import repro
from repro.experiments.registry import EXPERIMENTS

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _iter_public_modules():
    package_path = pathlib.Path(repro.__file__).parent
    for info in pkgutil.walk_packages([str(package_path)], prefix="repro."):
        if "__main__" in info.name:
            continue
        yield importlib.import_module(info.name)


class TestDocstrings:
    def test_every_module_documented(self):
        undocumented = [
            module.__name__
            for module in _iter_public_modules()
            if not (module.__doc__ or "").strip()
        ]
        assert not undocumented, f"modules without docstrings: {undocumented}"

    def test_every_public_callable_documented(self):
        undocumented = []
        for module in _iter_public_modules():
            for name, member in vars(module).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isfunction(member) or inspect.isclass(member)):
                    continue
                if getattr(member, "__module__", None) != module.__name__:
                    continue  # re-exported from elsewhere
                if not (member.__doc__ or "").strip():
                    undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_public_methods_documented(self):
        undocumented = []
        for module in _iter_public_modules():
            for name, cls in vars(module).items():
                if name.startswith("_") or not inspect.isclass(cls):
                    continue
                if getattr(cls, "__module__", None) != module.__name__:
                    continue
                for method_name, method in vars(cls).items():
                    if method_name.startswith("_"):
                        continue
                    if not inspect.isfunction(method):
                        continue
                    if not (method.__doc__ or "").strip():
                        undocumented.append(
                            f"{module.__name__}.{name}.{method_name}"
                        )
        assert not undocumented, f"missing docstrings: {undocumented}"


class TestDesignDocIndex:
    def test_design_md_indexes_every_experiment(self):
        text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        for key in EXPERIMENTS:
            assert key in text, f"DESIGN.md does not mention {key}"

    def test_experiments_md_indexes_every_experiment(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for key in EXPERIMENTS:
            assert key in text, f"EXPERIMENTS.md does not mention {key}"

    def test_all_named_benches_exist(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        bench_dir = REPO_ROOT / "benchmarks"
        for token in set(
            word.strip("`")
            for word in text.split()
            if word.startswith("`bench_")
        ):
            assert (bench_dir / f"{token}.py").exists(), f"missing {token}.py"

    def test_readme_mentions_all_examples(self):
        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for script in (REPO_ROOT / "examples").glob("*.py"):
            assert script.name in text, f"README does not mention {script.name}"

    def test_examples_exist_and_have_main(self):
        scripts = list((REPO_ROOT / "examples").glob("*.py"))
        assert {script.name for script in scripts} == {
            "cross_polarized_pairs.py",
            "four_photon_states.py",
            "heralded_single_photons.py",
            "quickstart.py",
            "time_bin_entanglement.py",
        }
        for script in scripts:
            content = script.read_text(encoding="utf-8")
            assert '"""' in content.split("\n", 2)[0] + content[:400]
            assert "__main__" in content
