"""Local integrity checks for the mkdocs site.

CI builds the site with ``mkdocs build --strict``; the tier-1 suite
cannot assume mkdocs is installed, so this approximates the strict
build's guarantees with the stdlib: the nav must reference files that
exist, every relative markdown link must resolve, and the README's
docs/ links must point at real pages.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCS_DIR = REPO_ROOT / "docs"
MKDOCS_YML = REPO_ROOT / "mkdocs.yml"

#: Markdown inline links: [text](target)
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _nav_paths():
    """The ``path.md`` entries of mkdocs.yml's nav (regex; no yaml dep)."""
    text = MKDOCS_YML.read_text(encoding="utf-8")
    return re.findall(r":\s*([\w/.-]+\.md)\s*$", text, flags=re.MULTILINE)


def _doc_pages():
    return sorted(DOCS_DIR.rglob("*.md"))


def test_mkdocs_config_exists_and_is_strict():
    text = MKDOCS_YML.read_text(encoding="utf-8")
    assert "strict: true" in text
    assert "docs_dir: docs" in text


def test_nav_references_existing_pages():
    paths = _nav_paths()
    assert paths, "mkdocs.yml nav is empty"
    for path in paths:
        assert (DOCS_DIR / path).is_file(), f"nav references missing {path}"


def test_every_docs_page_is_in_nav():
    nav = set(_nav_paths())
    pages = {
        str(page.relative_to(DOCS_DIR)).replace("\\", "/")
        for page in _doc_pages()
    }
    assert pages, "docs/ has no markdown pages"
    missing = pages - nav
    assert not missing, f"docs pages absent from mkdocs.yml nav: {missing}"


@pytest.mark.parametrize(
    "page", _doc_pages(), ids=lambda p: str(p.relative_to(DOCS_DIR))
)
def test_relative_links_resolve(page):
    text = page.read_text(encoding="utf-8")
    broken = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        if not (page.parent / path).resolve().exists():
            broken.append(target)
    assert not broken, f"{page.name}: broken relative links {broken}"


def test_readme_links_to_docs_pages():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    targets = [
        t for t in _LINK.findall(readme) if t.startswith("docs/")
    ]
    assert targets, "README should link into docs/"
    for target in targets:
        path = target.split("#", 1)[0]
        assert (REPO_ROOT / path).is_file(), f"README links missing {target}"


def test_readme_names_the_benchmark_command():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "perfbench/run.py" in readme
