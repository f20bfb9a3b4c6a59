"""Seeded generators for the pipeline benchmark's corpora.

Each generator returns a Corpus: the source files to write, and for every
declared class the ordered error-code list the program must report. The
reference lists come from the templates below, never from running the
program. The seed only renames classes, changes literals and reorders
independent fragments, so every seed gives a tree of the same size and
shape and the run-to-run spread measures the host, not the draw.

Templates avoid the callee-resolution false positive that name/arity
lookup allows (a call resolved to a same-named method of an unrelated
class): every call site that could reach a same-named method elsewhere
either reaches a mutating callee in its own hierarchy, or reaches no
mutating callee at all. The references therefore hold for name/arity and
for hierarchy-aware resolution alike.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass, field
from pathlib import Path



@dataclass
class ClassInfo:
    name: str
    superclass: str | None
    codes: list[int]
    methods: list[tuple[str, int]] = field(default_factory=list)  # (name, arity)
    calls: list[tuple[str, int]] = field(default_factory=list)    # call sites


@dataclass
class Corpus:
    files: dict[str, str]  # relative path -> source text
    classes: list[ClassInfo]
    skipped_lines: int  # lines inside constructs the parser must skip

    def reference(self) -> dict[str, list[int]]:
        """Every declared class -> its expected ordered error-code list."""
        return {c.name: list(c.codes) for c in self.classes}

    def write(self, root: Path) -> None:
        for rel, text in self.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")


def _salt(rng: random.Random, length: int = 3) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


# --- replica -----------------------------------------------------------------
#
# The twelve fixture files of the test suite with every corpus class name
# written as ${Name}. Names are renamed per copy and per group (the whole
# reference corpus is one group, since ML_H extends ML_G across files; each
# case file is its own group, since two of them declare a class A).
# Each entry: group tag, relative path, source, and per class
# (expected codes, declared methods, call sites) with constructors left out.

_REPLICA = (
    ("r0", "reference_corpus/A.java", """\
class ${A}
{
    int a, b, c,x;
    String d="WEL";
    String e="WEL";
    public void A_a()
    {
        if(d==e)
        {
        }
        System.out.println("Class A called");
        if(a>4)
        {
            a--;
        }
        do
        {
        }while(a>10);
    }
}
""", {"A": ([1, 6], [("A_a", 0)], [("println", 1)])}),
    ("r0", "reference_corpus/ML_G.java", """\
public class ${ML_A}
{
    ${ML_A}()
    {
        System.out.print("Welcome to ML_A");
    }
}
class ${ML_B} extends ${ML_A}
{
    ${ML_B}()
    {
        System.out.print("Welcome to ML_B");
    }
}
class ${ML_C} extends ${ML_B}
{
    ${ML_C}()
    {
        System.out.print("Welcome to ML_C");
    }
}
class ${ML_D} extends ${ML_C}
{
    ${ML_D}()
    {
        System.out.print("Welcome to ML_D");
    }
}
class ${ML_E} extends ${ML_D}
{
    ${ML_E}()
    {
        System.out.print("Welcome to ML_E");
    }
}
class ${ML_F} extends ${ML_E}
{
    ${ML_F}()
    {
        System.out.print("Welcome to ML_F");
    }
}
class ${ML_G} extends ${ML_F}
{
    ${ML_G}()
    {
        System.out.print("Welcome to ML_G");
    }
    public static void main(String arg[])
    {
        ${ML_G} mlf = new ${ML_G}();
    }
}
""", {
        "ML_A": ([], [], [("print", 1)]),
        "ML_B": ([], [], [("print", 1)]),
        "ML_C": ([], [], [("print", 1)]),
        "ML_D": ([], [], [("print", 1)]),
        "ML_E": ([], [], [("print", 1)]),
        "ML_F": ([], [], [("print", 1)]),
        "ML_G": ([3], [("main", 1)], [("print", 1)]),
    }),
    ("r0", "reference_corpus/ML_H.java", """\
class ${ML_H} extends ${ML_G}
{
    ${ML_H}()
    {
        System.out.print("Welcome to ML_H");
    }
    public void load (Stack s)
    {
        String item = "item";
        s.push (item);
        drain (s);
        s.pop();
    }
    public void drain (Vector v)
    {
        v.removeElementAt (v.size()-1);
    }
}
""", {"ML_H": ([3, 4], [("load", 1), ("drain", 1)],
               [("print", 1), ("push", 1), ("drain", 1), ("pop", 0),
                ("removeElementAt", 1), ("size", 0)])}),
    ("r0", "reference_corpus/MP_A.java", """\
class ${MP_A} extends MP_B, MP_C
{
    ${MP_A}()
    {
        try
        {
            FileOutputStream log_out = new FileOutputStream(logfile);
            log_out.writeBytes("started");
        }
        catch (IOException e)
        {
            System.out.println("IO exception: " + e);
        }
    }
}
""", {"MP_A": ([2, 5], [], [("writeBytes", 1), ("println", 1)])}),
    ("r0", "reference_corpus/loopa.java", """\
class ${loopa}
{
    String mode = "w";
    String status = "w";
    ${loopa} ()
    {
        int a = 0;
        int i = 0;
        if (mode == status)
        {
        }
        while (a > 10)
        {
        }
        try
        {
            FileOutputStream file_output = new FileOutputStream(file);
            DataOutputStream data_out = new DataOutputStream(file_output);
            for (i = 0; i < 10; i++)
            {
                data_out.writeInt(i);
                data_out.writeDouble(i);
            }
            file_output.close();
        }
        catch (IOException e)
        {
            System.out.println("IO exception: " + e);
        }
    }
}
""", {"loopa": ([1, 6, 5], [],
                [("writeInt", 1), ("writeDouble", 1), ("close", 0), ("println", 1)])}),
    ("r0", "reference_corpus/sample.java", """\
class ${sample}
{
    public void f (Stack s)
    {
        String s1 = "s1";
        String s2 = "s2";
        if (s1 == s2)
        {
        }
        s.push (s1);
        s.push (s2);
        g (s);
        s.pop();
        s.pop();
    }
    public void g (Vector v)
    {
        v.removeElementAt (v.size()-1);
    }
}
""", {"sample": ([1, 4], [("f", 1), ("g", 1)],
                 [("push", 1), ("push", 1), ("g", 1), ("pop", 0), ("pop", 0),
                  ("removeElementAt", 1), ("size", 0)])}),
    ("c1", "cases/deep_chain.java", None, {
        "ML_A": ([], [], [("print", 1)]),
        "ML_B": ([], [], [("print", 1)]),
        "ML_C": ([], [], [("print", 1)]),
        "ML_D": ([], [], [("print", 1)]),
        "ML_E": ([], [], [("print", 1)]),
        "ML_F": ([], [], [("print", 1)]),
        "ML_G": ([3], [("main", 1)], [("print", 1)]),
    }),
    ("c2", "cases/double_extends.java", """\
class ${C} extends B, A
{
}
""", {"C": ([2], [], [])}),
    ("c3", "cases/empty_do_while.java", """\
class ${A}
{
  int a, b, c,x;
  public void A_a()
  {
    if(a>4)
    {
      a--;
    }
    do
    {
      }while(a>10);
  }}
""", {"A": ([6], [("A_a", 0)], [])}),
    ("c4", "cases/stack_vector_itu.java", """\
class ${ituDemo}
{
    public void f (Stack s)
    {
        String s1 = "s1";
        String s2 = "s2";
        String s3 = "s3";
        s.push (s1);
        s.push (s2);
        s.push (s3);
        g (s);
        s.pop();
        s.pop();
        s.pop();
    }
    public void g (Vector v)
    {
        v.removeElementAt (v.size()-1);
    }
}
""", {"ituDemo": ([4], [("f", 1), ("g", 1)],
                  [("push", 1), ("push", 1), ("push", 1), ("g", 1), ("pop", 0),
                   ("pop", 0), ("pop", 0), ("removeElementAt", 1), ("size", 0)])}),
    ("c5", "cases/string_equality.java", """\
class ${A}
{
    int a, b, c,x;
    String d="WEL";
    String e="WEL";
    public void A_a()
    {
        if(d==e)
        {
            }
        System.out.println("Class A called");
    }
}
""", {"A": ([1], [("A_a", 0)], [("println", 1)])}),
    ("c6", "cases/unclosed_stream.java", """\
class ${loopa}
{
  ${loopa} ()
  {
    int a=0;
    int i=0;
    try
    {
      FileOutputStream file_output=new FileOutputStream(file);
      DataOutputStream data_out=new DataOutputStream(file_output);
      for (i = 0;i < 10;i++)
      {
          data_out.writeInt(i);
          data_out.writeDouble(i);
      }
          file_output.close();
      }
      catch (IOException e)
      {
          System.out.println("IO exception: " + e);
      }}
}
""", {"loopa": ([5], [],
                [("writeInt", 1), ("writeDouble", 1), ("close", 0), ("println", 1)])}),
)

# cases/deep_chain.java is byte-identical to reference_corpus/ML_G.java.
_REPLICA = tuple(
    (tag, rel, _REPLICA[1][2] if src is None else src, classes)
    for tag, rel, src, classes in _REPLICA
)

_EXTENDS = re.compile(r"class \$\{(\w+)\} extends \$\{(\w+)\}")


def replica(seed: int, copies: int = 200) -> Corpus:
    rng = random.Random(f"replica:{seed}")
    files: dict[str, str] = {}
    classes: list[ClassInfo] = []
    for copy in range(copies):
        salt = _salt(rng)
        for tag, rel, source, declared in _REPLICA:
            names = {n: f"{n}_{salt}{copy:03d}{tag}" for n in declared}
            # ML_H (group r0) extends ML_G declared in another file of the group
            names.setdefault("ML_G", f"ML_G_{salt}{copy:03d}{tag}")
            supers = dict(_EXTENDS.findall(source))
            files[f"copy{copy:03d}/{rel}"] = string.Template(source).substitute(names)
            for name, (codes, methods, calls) in declared.items():
                sup = supers.get(name)
                classes.append(ClassInfo(
                    names[name], names[sup] if sup else None, codes, methods, calls))
    return Corpus(files, classes, skipped_lines=0)


# --- hierarchy ---------------------------------------------------------------
#
# One chain of eight classes per file. Every class declares accept/1,
# getLevel/0 and visit/1, so each call site has one same-named candidate
# per class of the corpus. No callee mutates its parameter (getLevel
# matches the built-in pure-accessor pattern get*), so rule 4 examines
# every candidate and reports nothing under either resolution strategy;
# rule 3 reports the classes at depth 6 and 7.

_HIER_CLASS = """\
class {name}{extends}
{{
    int level;
    public void accept({name} peer)
    {{
        level = peer.getLevel();
    }}
    public int getLevel()
    {{
        return level;
    }}
    public void visit({name} peer)
    {{
        {name} other = new {name}();
        accept(other);
        level = other.getLevel() + {bump};
    }}
}}
"""

CHAIN_LENGTH = 8
SPAGHETTI_DEPTH = 6


def hierarchy(seed: int, chains: int = 100) -> Corpus:
    rng = random.Random(f"hierarchy:{seed}")
    files: dict[str, str] = {}
    classes: list[ClassInfo] = []
    for chain in range(chains):
        salt = _salt(rng)
        parts = []
        parent = None
        for depth in range(CHAIN_LENGTH):
            name = f"H{salt}{chain:03d}_{depth}"
            parts.append(_HIER_CLASS.format(
                name=name,
                extends=f" extends {parent}" if parent else "",
                bump=rng.randrange(10),
            ))
            classes.append(ClassInfo(
                name, parent,
                [3] if depth >= SPAGHETTI_DEPTH else [],
                [("accept", 1), ("getLevel", 0), ("visit", 1)],
                [("getLevel", 0), ("accept", 1), ("getLevel", 0)],
            ))
            parent = name
        files[f"chain{chain:03d}/H{salt}{chain:03d}.java"] = "".join(parts)
    return Corpus(files, classes, skipped_lines=0)


# --- recovery ----------------------------------------------------------------
#
# Each class mixes four constructs outside the subset, each skipped as one
# diagnostic, with three in-subset faults (codes 1, 6 and 5) in a seeded
# order; the reference list is that order. Faults never sit inside a
# skipped construct. Classes extend each other in groups of four, so no
# chain reaches the spaghetti depth.

_REC_HEAD = """\
class {name}{extends}
{{
    private List<String> names = new ArrayList<String>();
    int count;
    String mode = "{literal}";
    @Override
    public String toString()
    {{
        return mode;
    }}
    public void work(int k, String other)
    {{
        switch (k)
        {{
            case 1:
                count++;
                break;
            default:
                count--;
        }}
        Runnable task = () -> {{ count++; }};
"""
_REC_SKIPPED_LINES = 1 + 5 + 8 + 1  # generic field, annotated method, switch, lambda
_REC_TAIL = """\
    }
}
"""
_REC_FAULTS = {
    1: """\
        if (mode == other)
        {
            count++;
        }
""",
    6: """\
        while (count > 10)
        {
        }
""",
    5: """\
        FileReader in = new FileReader(mode);
        in.read();
""",
}
GROUP = 4


def recovery(seed: int, files_count: int = 20, classes_per_file: int = 120) -> Corpus:
    rng = random.Random(f"recovery:{seed}")
    files: dict[str, str] = {}
    classes: list[ClassInfo] = []
    for index in range(files_count):
        salt = _salt(rng)
        parts = []
        parent = None
        for member in range(classes_per_file):
            name = f"R{salt}{index:02d}_{member:03d}"
            if member % GROUP == 0:
                parent = None
            order = list(_REC_FAULTS)
            rng.shuffle(order)
            parts.append(_REC_HEAD.format(
                name=name,
                extends=f" extends {parent}" if parent else "",
                literal=_salt(rng),
            ))
            parts.extend(_REC_FAULTS[code] for code in order)
            parts.append(_REC_TAIL)
            classes.append(ClassInfo(name, parent, order, [("work", 2)], [("read", 0)]))
            parent = name
        files[f"part{index:02d}/R{salt}{index:02d}.java"] = "".join(parts)
    skipped = _REC_SKIPPED_LINES * files_count * classes_per_file
    return Corpus(files, classes, skipped_lines=skipped)


# --- mixed -------------------------------------------------------------------
#
# The replica copies and the recovery files in one tree: many small clean
# files for the walk, the reader and the parser's main path, and a few large
# ones for its skip path and a large store. One workload carries both so that
# each run can measure for longer; hierarchy is the other workload. The two
# parts share no class name and no (name, arity) of a method or call site.


def mixed(seed: int, copies: int = 100, files_count: int = 10,
          classes_per_file: int = 120) -> Corpus:
    small = replica(seed, copies)
    large = recovery(seed, files_count, classes_per_file)
    return Corpus(small.files | large.files, small.classes + large.classes,
                  skipped_lines=small.skipped_lines + large.skipped_lines)


GENERATORS = {"mixed": mixed, "hierarchy": hierarchy}
WORKLOADS = tuple(GENERATORS)


# --- traffic properties --------------------------------------------------------

# Independent of the program's lexer: the generated code has no comments.
_TOKEN = re.compile(
    r'"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])*\'|[A-Za-z_]\w*|\d+'
    r'|==|!=|<=|>=|&&|\|\||\+\+|--|[-+*/%]=|\S'
)


def _chain_depth(name: str, supers: dict[str, str | None]) -> int:
    depth = 0
    while supers.get(name):
        name = supers[name]
        depth += 1
    return depth


def _shared_call_share(classes: list[ClassInfo], supers: dict[str, str | None]) -> float:
    """Share of call sites whose (name, arity) two unrelated classes declare."""
    ancestors = {}
    for info in classes:
        chain, name = set(), info.name
        while supers.get(name):
            name = supers[name]
            chain.add(name)
        ancestors[info.name] = chain
    declared: dict[tuple[str, int], list[str]] = {}
    for info in classes:
        for key in info.methods:
            declared.setdefault(key, []).append(info.name)

    def unrelated_pair(names: list[str]) -> bool:
        # a set of classes without an unrelated pair is a single ancestor line
        ordered = sorted(names, key=lambda n: len(ancestors[n]))
        return any(low not in ancestors[high]
                   for low, high in zip(ordered, ordered[1:]))

    shared = {key for key, names in declared.items()
              if len(names) > 1 and unrelated_pair(names)}
    sites = [call for info in classes for call in info.calls]
    return sum(call in shared for call in sites) / len(sites) if sites else 0.0


def traffic(corpus: Corpus) -> dict:
    texts = corpus.files.values()
    lines = sum(text.count("\n") for text in texts)
    supers = {c.name: c.superclass for c in corpus.classes}
    return {
        "files": len(corpus.files),
        "bytes": sum(len(text.encode("utf-8")) for text in texts),
        "lines": lines,
        "tokens": sum(len(_TOKEN.findall(text)) for text in texts),
        "classes": len(corpus.classes),
        "faulty_classes": sum(1 for c in corpus.classes if c.codes),
        "max_chain_depth": max(_chain_depth(c.name, supers) for c in corpus.classes),
        "shared_call_share": round(_shared_call_share(corpus.classes, supers), 4),
        "skipped_line_share": round(corpus.skipped_lines / lines, 4),
    }
