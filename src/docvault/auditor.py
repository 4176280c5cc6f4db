"""Black-box probe of a web-exposed directory for the four protections.

Checks, from the outside and with GET/HEAD only:

* R1_DirectAccess   - known filenames retrievable by plain GET
* R2_ListingOrIndex - auto-generated directory listing leaking filenames
* R3_GuessableNames - sequential names (1.pdf, 2.pdf, ...) that an outsider
                      can enumerate blind
* R4_StaticServing  - stored documents served statically instead of through
                      a mediating application

The auditor is polite (configurable delay, bounded probe count, early stop)
and read-only. A file probe decides from the status line and headers and
reads no body; the listing probe reads at most the first MiB of the page.
It never attempts to brute-force opaque 32-hex names.
"""

from __future__ import annotations

import enum
import json
import re
import time
from dataclasses import dataclass, field, asdict
from html.parser import HTMLParser
from urllib.parse import urljoin, urlsplit

import requests

DEFAULT_MAX_SEQUENTIAL = 100
DEFAULT_MISS_RUN = 20
DEFAULT_TIMEOUT = 10.0
_LISTING_CAP = 1 << 20

_INDEX_TITLE_RE = re.compile(
    r"(index of|directory listing for|to parent directory)", re.IGNORECASE
)


class Rule(enum.Enum):
    R1_DIRECT_ACCESS = "R1_DirectAccess"
    R2_LISTING_OR_INDEX = "R2_ListingOrIndex"
    R3_GUESSABLE_NAMES = "R3_GuessableNames"
    R4_STATIC_SERVING = "R4_StaticServing"


class Severity(enum.Enum):
    INFO = "Info"
    WARN = "Warn"
    CRITICAL = "Critical"


class Verdict(enum.Enum):
    PASS = "Pass"
    FAIL = "Fail"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class ProbeTarget:
    base_url: str
    extensions: tuple[str, ...] = ("pdf",)
    max_sequential: int = DEFAULT_MAX_SEQUENTIAL
    request_delay_ms: int = 0
    miss_run: int = DEFAULT_MISS_RUN
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self):
        if self.max_sequential < 1:
            raise ValueError("max_sequential must be >= 1")
        if not self.base_url.endswith("/"):
            object.__setattr__(self, "base_url", self.base_url + "/")


@dataclass(frozen=True)
class Finding:
    rule: Rule
    severity: Severity
    url: str
    status: int | None
    detail: str


@dataclass
class AuditReport:
    target: ProbeTarget
    findings: list[Finding] = field(default_factory=list)
    probes_sent: int = 0
    verdicts: dict[Rule, Verdict] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v is Verdict.PASS for v in self.verdicts.values())

    @property
    def indeterminate(self) -> bool:
        return any(v is Verdict.INDETERMINATE for v in self.verdicts.values())

    def findings_for(self, rule: Rule) -> list[Finding]:
        return [f for f in self.findings if f.rule is rule]

    def to_json(self) -> str:
        return json.dumps(
            {
                "target": {
                    "base_url": self.target.base_url,
                    "extensions": list(self.target.extensions),
                    "max_sequential": self.target.max_sequential,
                    "request_delay_ms": self.target.request_delay_ms,
                },
                "probes_sent": self.probes_sent,
                "verdicts": {r.value: v.value for r, v in self.verdicts.items()},
                "findings": [
                    {**asdict(f), "rule": f.rule.value, "severity": f.severity.value}
                    for f in self.findings
                ],
            },
            indent=2,
        )


class _AnchorCollector(HTMLParser):
    def __init__(self):
        super().__init__()
        self.hrefs: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag == "a":
            for name, value in attrs:
                if name == "href" and value:
                    self.hrefs.append(value)


def _directory_children(base_url: str, body: str) -> set[str]:
    """Anchor hrefs that resolve to direct non-index children of base_url."""
    parser = _AnchorCollector()
    try:
        parser.feed(body)
    except Exception:
        return set()
    base = urlsplit(base_url)
    children: set[str] = set()
    for href in parser.hrefs:
        resolved = urlsplit(urljoin(base_url, href))
        if (resolved.scheme, resolved.netloc) != (base.scheme, base.netloc):
            continue
        if not resolved.path.startswith(base.path):
            continue
        rest = resolved.path[len(base.path):].strip("/")
        if not rest or "/" in rest or rest == "index.html":
            continue
        children.add(rest)
    return children


def looks_like_listing(base_url: str, body: str) -> bool:
    if _INDEX_TITLE_RE.search(body):
        return True
    return len(_directory_children(base_url, body)) >= 2


class Auditor:
    def __init__(self, target: ProbeTarget):
        self.target = target
        self.session = requests.Session()
        self.probes_sent = 0

    def _get(self, url: str) -> requests.Response:
        """GET ``url`` up to its headers; the caller reads what it needs and closes."""
        if self.probes_sent and self.target.request_delay_ms:
            time.sleep(self.target.request_delay_ms / 1000.0)
        self.probes_sent += 1
        return self.session.get(url, timeout=self.target.timeout, stream=True)

    def _served_size(self, url: str) -> str | None:
        """The stated size of a file served at ``url``, else None; reads no body."""
        with self._get(url) as resp:
            if resp.status_code == 200 and not _is_html(resp):
                length = resp.headers.get("Content-Length", "")
                return f"{length} bytes" if length.isdecimal() else "size not stated"
        return None

    # -- individual probes -------------------------------------------------

    def probe_listing(self) -> tuple[Verdict, list[Finding], list[str]]:
        """Look for an auto-index page at the directory URL; also its children."""
        url = self.target.base_url
        try:
            with self._get(url) as resp:
                body = next(resp.iter_content(_LISTING_CAP), b"") if resp.ok else b""
        except requests.RequestException:
            return Verdict.INDETERMINATE, [], []
        try:
            text = body.decode(resp.encoding or "utf-8", errors="replace")
        except LookupError:  # a charset this Python does not know
            text = body.decode("utf-8", errors="replace")
        if looks_like_listing(url, text):
            listed = sorted(_directory_children(url, text))
            detail = f"directory listing exposed ({len(listed)} entries visible)"
            return Verdict.FAIL, [Finding(Rule.R2_LISTING_OR_INDEX, Severity.CRITICAL, url,
                                          resp.status_code, detail)], listed
        return Verdict.PASS, [], []

    def probe_sequential_names(self) -> tuple[Verdict, list[Finding]]:
        """Try 1.ext, 2.ext, ... looking for counter-named documents."""
        findings: list[Finding] = []
        saw_network_error = False
        for ext in self.target.extensions:
            last_hit = 0
            for i in range(1, self.target.max_sequential + 1):
                if i - last_hit > self.target.miss_run:
                    break
                url = f"{self.target.base_url}{i}.{ext}"
                try:
                    size = self._served_size(url)
                except requests.RequestException:
                    saw_network_error = True
                    break
                if size:
                    last_hit = i
                    findings.append(Finding(Rule.R3_GUESSABLE_NAMES, Severity.CRITICAL, url,
                                            200, f"sequential name retrievable ({size})"))
        if saw_network_error and not findings:
            return Verdict.INDETERMINATE, findings
        return (Verdict.FAIL if findings else Verdict.PASS), findings

    def probe_direct_access(self, names: list[str]) -> tuple[Verdict, list[Finding]]:
        """GET each known filename; any retrieval is a direct-access breach."""
        findings: list[Finding] = []
        saw_network_error = False
        for name in names:
            url = urljoin(self.target.base_url, name)
            try:
                size = self._served_size(url)
            except requests.RequestException:
                saw_network_error = True
                continue
            if size:
                detail = f"known filename served statically ({size})"
                findings += [Finding(rule, Severity.CRITICAL, url, 200, detail)
                             for rule in (Rule.R1_DIRECT_ACCESS, Rule.R4_STATIC_SERVING)]
        if saw_network_error and not findings:
            return Verdict.INDETERMINATE, findings
        return (Verdict.FAIL if findings else Verdict.PASS), findings


def _is_html(resp: requests.Response) -> bool:
    return "text/html" in resp.headers.get("Content-Type", "")


def run_audit(target: ProbeTarget, known_names: list[str] | None = None) -> AuditReport:
    """Run every probe and aggregate a per-rule verdict.

    Overall pass requires every rule to pass: the protections are only
    effective in combination, so a single failing rule fails the audit.
    When no known names are supplied, the filenames discovered by the
    sequential probe double as direct-access evidence; failing those, the
    children an exposed listing showed, at most max_sequential of them.
    """
    auditor = Auditor(target)
    report = AuditReport(target=target)

    v2, f2, listed = auditor.probe_listing()
    report.verdicts[Rule.R2_LISTING_OR_INDEX] = v2
    report.findings.extend(f2)

    v3, f3 = auditor.probe_sequential_names()
    report.verdicts[Rule.R3_GUESSABLE_NAMES] = v3
    report.findings.extend(f3)

    names = (
        list(known_names or ())
        or [f.url.rsplit("/", 1)[-1] for f in f3]
        or listed[: target.max_sequential]
    )
    if names:
        v14, f14 = auditor.probe_direct_access(names)
    elif v2 is Verdict.INDETERMINATE and v3 is Verdict.INDETERMINATE:
        v14, f14 = Verdict.INDETERMINATE, []
    else:
        # Nothing retrievable and nothing to try by name: no direct access
        # demonstrated.  A not-found/denied directory cannot be told apart
        # from an outside-webroot placement, and both are acceptable.
        v14, f14 = Verdict.PASS, []
    report.verdicts[Rule.R1_DIRECT_ACCESS] = v14
    report.verdicts[Rule.R4_STATIC_SERVING] = v14
    report.findings.extend(f14)

    report.probes_sent = auditor.probes_sent
    return report


def render_text_report(report: AuditReport) -> str:
    lines = [f"audit of {report.target.base_url} ({report.probes_sent} probes)"]
    for rule in Rule:
        verdict = report.verdicts.get(rule, Verdict.INDETERMINATE)
        lines.append(f"  {rule.value}: {verdict.value}")
        for f in report.findings_for(rule):
            lines.append(f"    [{f.severity.value}] {f.url} ({f.status}) {f.detail}")
    overall = (
        "PASS" if report.passed
        else ("INDETERMINATE" if report.indeterminate else "FAIL")
    )
    lines.append(f"overall: {overall}")
    return "\n".join(lines)
