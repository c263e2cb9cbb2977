/**
 * @file
 * contig_report: differential consumer of the schema-4 "attribution"
 * bench-JSON section (--attrib runs). Reads two documents, picks one
 * translation table from each (--a-xlat / --b-xlat select the scheme
 * label when a document carries several), and prints a side-by-side
 * cost table resolved by (outcome x contiguity class): events, walk
 * and exposed cycles, per-class deltas and the p50/p90/p99 shifts of
 * the exposed-cycle distributions.
 *
 *   contig_report A.json B.json [--a-xlat LABEL] [--b-xlat LABEL]
 *                 [--gate] [--max-exposed-growth-pct PCT]
 *                 [--max-p99-growth-pct PCT]
 *
 * The same file may be given twice with different labels — that is
 * how "CA paging vs SpOT" reads from one fig13 run. With --gate the
 * tool exits 1 when B regresses past the thresholds relative to A:
 * per-event exposed cycles growing more than
 * --max-exposed-growth-pct (default 10) or any outcome's exposed p99
 * growing more than --max-p99-growth-pct (default 25). Exit 2 means
 * the inputs were unusable: no attribution section, an unknown label,
 * or a table's, outcome's or cell's events or cycle sum that is
 * missing or not an unsigned integer (the message names the field).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "base/json.hh"

using namespace contig;

namespace
{

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "contig_report: %s\n", msg.c_str());
    std::exit(2);
}

// --- attribution model ----------------------------------------------------

struct Cell
{
    double events = 0;
    double walkCycles = 0;
    double exposedCycles = 0;
    double p50 = 0, p90 = 0, p99 = 0;
};

struct Outcome
{
    Cell total;
    std::map<unsigned, Cell> classes;      //!< class index -> cell
    std::map<unsigned, std::string> names; //!< class index -> label
};

struct XlatTable
{
    std::string file;
    std::string label;
    double events = 0;
    double walkCycles = 0;
    double exposedCycles = 0;
    /** Keyed by outcome token, document order preserved separately. */
    std::map<std::string, Outcome> outcomes;
    std::vector<std::string> order;
};

/** Count `key` of `v` ("events", a cycle sum), which `where` names. */
double
count(const JsonValue &v, const char *key, const std::string &where)
{
    const JsonValue *f = v.find(key);
    const auto n = f ? f->asUint() : std::nullopt;
    if (!n)
        die(where + ": \"" + key +
            "\" is missing or not an unsigned integer");
    return static_cast<double>(*n);
}

/**
 * A cost cell or outcome total; its percentiles are "p50".. in a cell
 * and "exposed_p50".. in an outcome (`pct` is that key's prefix).
 */
Cell
readCell(const JsonValue &v, const std::string &where, const std::string &pct)
{
    Cell c;
    c.events = count(v, "events", where);
    c.walkCycles = count(v, "walk_cycles", where);
    c.exposedCycles = count(v, "exposed_cycles", where);
    c.p50 = v.numberOr(pct + "p50", 0);
    c.p90 = v.numberOr(pct + "p90", 0);
    c.p99 = v.numberOr(pct + "p99", 0);
    return c;
}

JsonValue
loadDoc(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        die("cannot open '" + path + "'");
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    auto doc = JsonValue::parse(ss.str(), &err);
    if (!doc)
        die(path + ": " + err);
    return std::move(*doc);
}

XlatTable
loadXlat(const std::string &path, const JsonValue &doc,
         const std::string &want_label)
{
    const JsonValue *attr = doc.find("attribution");
    if (!attr)
        die(path + " has no \"attribution\" section — was the bench "
                   "run with --attrib?");
    const JsonValue *xlat = attr->find("xlat");
    if (!xlat || !xlat->isObject() || xlat->members().empty())
        die(path + " has no translation attribution tables");

    std::string available;
    const JsonValue *table = nullptr;
    std::string label;
    for (const auto &m : xlat->members()) {
        if (!available.empty())
            available += ", ";
        available += m.first;
        if (want_label.empty() || m.first == want_label) {
            if (want_label.empty() && table)
                die(path + " carries several tables (" + available +
                    "...) — pick one with --a-xlat/--b-xlat");
            table = &m.second;
            label = m.first;
        }
    }
    if (!table)
        die(path + " has no table '" + want_label + "' (available: " +
            available + ")");

    XlatTable t;
    t.file = path;
    t.label = label;
    const std::string where = path + ": table '" + label + "'";
    t.events = count(*table, "events", where);
    t.walkCycles = count(*table, "walk_cycles", where);
    t.exposedCycles = count(*table, "exposed_cycles", where);
    if (const JsonValue *outs = table->find("outcomes")) {
        for (const auto &m : outs->members()) {
            const std::string owhere = where + " outcome '" + m.first + "'";
            Outcome o;
            o.total = readCell(m.second, owhere, "exposed_");
            if (const JsonValue *cls = m.second.find("classes")) {
                for (const JsonValue &cv : cls->array()) {
                    const JsonValue *c = cv.find("class");
                    const auto idx = c ? c->asUint(~0u) : std::nullopt;
                    if (!idx)
                        die(path + ": outcome '" + m.first +
                            "' has a cell whose \"class\" is not an "
                            "unsigned integer");
                    o.classes[*idx] = readCell(
                        cv, owhere + " class " + std::to_string(*idx), "");
                    if (const JsonValue *n = cv.find("name"))
                        o.names[*idx] = n->asString();
                }
            }
            t.outcomes.emplace(m.first, std::move(o));
            t.order.push_back(m.first);
        }
    }
    return t;
}

// --- formatting -----------------------------------------------------------

std::string
num(double v)
{
    char buf[32];
    if (v == std::floor(v) && std::fabs(v) < 1e15)
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    else
        std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
}

std::string
pct(double a, double b)
{
    if (a == 0.0)
        return b == 0.0 ? "0%" : "new";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+.1f%%", (b - a) / a * 100.0);
    return buf;
}

void
printTable(const std::vector<std::vector<std::string>> &rows)
{
    std::vector<std::size_t> width;
    for (const auto &row : rows) {
        if (width.size() < row.size())
            width.resize(row.size(), 0);
        for (std::size_t i = 0; i < row.size(); ++i)
            width[i] = std::max(width[i], row[i].size());
    }
    for (const auto &row : rows) {
        for (std::size_t i = 0; i < row.size(); ++i)
            std::printf("%-*s%s", static_cast<int>(width[i]),
                        row[i].c_str(), i + 1 < row.size() ? "  " : "");
        std::printf("\n");
    }
}

/** Outcome keys of both tables, A's document order first. */
std::vector<std::string>
unionOutcomes(const XlatTable &a, const XlatTable &b)
{
    std::vector<std::string> keys = a.order;
    for (const std::string &k : b.order)
        if (!a.outcomes.count(k))
            keys.push_back(k);
    return keys;
}

const Outcome &
outcomeOrEmpty(const XlatTable &t, const std::string &key)
{
    static const Outcome empty;
    const auto it = t.outcomes.find(key);
    return it == t.outcomes.end() ? empty : it->second;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> files;
    std::string a_label, b_label;
    bool gate = false;
    double max_exposed_pct = 10.0;
    double max_p99_pct = 25.0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_next = i + 1 < argc;
        if (arg == "--a-xlat" && has_next) {
            a_label = argv[++i];
        } else if (arg == "--b-xlat" && has_next) {
            b_label = argv[++i];
        } else if (arg == "--gate") {
            gate = true;
        } else if (arg == "--max-exposed-growth-pct" && has_next) {
            max_exposed_pct = std::strtod(argv[++i], nullptr);
        } else if (arg == "--max-p99-growth-pct" && has_next) {
            max_p99_pct = std::strtod(argv[++i], nullptr);
        } else if (!arg.empty() && arg[0] == '-') {
            die("unknown option '" + arg +
                "'\nusage: contig_report A.json B.json"
                " [--a-xlat LABEL] [--b-xlat LABEL] [--gate]"
                " [--max-exposed-growth-pct PCT]"
                " [--max-p99-growth-pct PCT]");
        } else {
            files.push_back(arg);
        }
    }
    if (files.size() != 2)
        die("expected exactly two bench JSON files"
            "\nusage: contig_report A.json B.json [--a-xlat LABEL]"
            " [--b-xlat LABEL] [--gate] [--max-exposed-growth-pct PCT]"
            " [--max-p99-growth-pct PCT]");

    const JsonValue doc_a = loadDoc(files[0]);
    const JsonValue doc_b = loadDoc(files[1]);
    const XlatTable a = loadXlat(files[0], doc_a, a_label);
    const XlatTable b = loadXlat(files[1], doc_b, b_label);

    std::printf("A: %s [%s]  events=%s exposed_cycles=%s\n",
                a.file.c_str(), a.label.c_str(), num(a.events).c_str(),
                num(a.exposedCycles).c_str());
    std::printf("B: %s [%s]  events=%s exposed_cycles=%s\n\n",
                b.file.c_str(), b.label.c_str(), num(b.events).c_str(),
                num(b.exposedCycles).c_str());

    // --- the side-by-side (outcome x class) cost table -------------------
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"outcome", "class", "a.events", "b.events",
                    "a.exposed", "b.exposed", "d.exposed", "d%"});
    for (const std::string &key : unionOutcomes(a, b)) {
        const Outcome &oa = outcomeOrEmpty(a, key);
        const Outcome &ob = outcomeOrEmpty(b, key);
        rows.push_back(
            {key, "*", num(oa.total.events), num(ob.total.events),
             num(oa.total.exposedCycles), num(ob.total.exposedCycles),
             num(ob.total.exposedCycles - oa.total.exposedCycles),
             pct(oa.total.exposedCycles, ob.total.exposedCycles)});
        std::map<unsigned, bool> cls;
        for (const auto &kv : oa.classes)
            cls[kv.first] = true;
        for (const auto &kv : ob.classes)
            cls[kv.first] = true;
        for (const auto &kv : cls) {
            static const Cell empty;
            const auto ia = oa.classes.find(kv.first);
            const auto ib = ob.classes.find(kv.first);
            const Cell &ca = ia == oa.classes.end() ? empty : ia->second;
            const Cell &cb = ib == ob.classes.end() ? empty : ib->second;
            std::string name = "cls" + std::to_string(kv.first);
            if (const auto in = oa.names.find(kv.first);
                in != oa.names.end())
                name = in->second;
            else if (const auto im = ob.names.find(kv.first);
                     im != ob.names.end())
                name = im->second;
            rows.push_back({"", name, num(ca.events), num(cb.events),
                            num(ca.exposedCycles), num(cb.exposedCycles),
                            num(cb.exposedCycles - ca.exposedCycles),
                            pct(ca.exposedCycles, cb.exposedCycles)});
        }
    }
    printTable(rows);

    // --- percentile shifts ------------------------------------------------
    std::printf("\npercentile shifts (exposed cycles per event):\n");
    rows.clear();
    rows.push_back({"outcome", "a.p50", "b.p50", "a.p90", "b.p90",
                    "a.p99", "b.p99", "d.p99%"});
    for (const std::string &key : unionOutcomes(a, b)) {
        const Cell &ca = outcomeOrEmpty(a, key).total;
        const Cell &cb = outcomeOrEmpty(b, key).total;
        rows.push_back({key, num(ca.p50), num(cb.p50), num(ca.p90),
                        num(cb.p90), num(ca.p99), num(cb.p99),
                        pct(ca.p99, cb.p99)});
    }
    printTable(rows);

    // --- fault-side totals, when both documents carry them ---------------
    const JsonValue *fa = doc_a.find("attribution");
    const JsonValue *fb = doc_b.find("attribution");
    const JsonValue *fta = fa ? fa->find("fault") : nullptr;
    const JsonValue *ftb = fb ? fb->find("fault") : nullptr;
    if (fta && ftb) {
        const std::string wa = files[0] + ": fault table";
        const std::string wb = files[1] + ": fault table";
        const double cycles_a = count(*fta, "cycles", wa);
        const double cycles_b = count(*ftb, "cycles", wb);
        std::printf("\nfault path: A %s events / %s cycles vs "
                    "B %s events / %s cycles (%s cycles)\n",
                    num(count(*fta, "events", wa)).c_str(),
                    num(cycles_a).c_str(),
                    num(count(*ftb, "events", wb)).c_str(),
                    num(cycles_b).c_str(), pct(cycles_a, cycles_b).c_str());
    }

    // --- regression gate --------------------------------------------------
    if (!gate)
        return 0;
    int rc = 0;
    const double pe_a = a.events > 0 ? a.exposedCycles / a.events : 0;
    const double pe_b = b.events > 0 ? b.exposedCycles / b.events : 0;
    if (pe_a > 0 &&
        (pe_b - pe_a) / pe_a * 100.0 > max_exposed_pct) {
        std::fprintf(stderr,
                     "contig_report: GATE per-event exposed cycles "
                     "%.4f -> %.4f (+%.1f%% > %.1f%%)\n",
                     pe_a, pe_b, (pe_b - pe_a) / pe_a * 100.0,
                     max_exposed_pct);
        rc = 1;
    }
    for (const std::string &key : unionOutcomes(a, b)) {
        const Cell &ca = outcomeOrEmpty(a, key).total;
        const Cell &cb = outcomeOrEmpty(b, key).total;
        if (ca.p99 > 0 &&
            (cb.p99 - ca.p99) / ca.p99 * 100.0 > max_p99_pct) {
            std::fprintf(stderr,
                         "contig_report: GATE %s exposed p99 "
                         "%.2f -> %.2f (+%.1f%% > %.1f%%)\n",
                         key.c_str(), ca.p99, cb.p99,
                         (cb.p99 - ca.p99) / ca.p99 * 100.0,
                         max_p99_pct);
            rc = 1;
        }
    }
    if (rc == 0)
        std::printf("\ngate: ok (exposed/event %+.1f%% <= %.1f%%)\n",
                    pe_a > 0 ? (pe_b - pe_a) / pe_a * 100.0 : 0.0,
                    max_exposed_pct);
    return rc;
}
