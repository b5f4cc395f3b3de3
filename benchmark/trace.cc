#include "trace.hh"

#include <fstream>
#include <map>

#include "common/json.hh"
#include "common/table.hh"

namespace graphr::bench
{

Tracer::Span::Span(Tracer &tracer, std::string name, std::string request)
    : tracer_(tracer), index_(tracer.records_.size())
{
    Record record;
    record.name = std::move(name);
    if (!tracer.open_.empty()) {
        record.parent = tracer.open_.back();
        if (request.empty())
            request = tracer.records_[record.parent].request;
    }
    record.request = std::move(request);
    tracer.records_.push_back(std::move(record));
    tracer.open_.push_back(index_);
    tracer.records_[index_].start = Clock::now();
    tracer.records_[index_].cpuStart = threadCpuSeconds();
}

Tracer::Span::~Span()
{
    tracer_.records_[index_].cpuEnd = threadCpuSeconds();
    tracer_.records_[index_].end = Clock::now();
    tracer_.open_.pop_back();
}

void
Tracer::Span::arg(std::string key, double value)
{
    tracer_.records_[index_].args.emplace_back(std::move(key), value);
}

double
Tracer::Record::arg(std::string_view key) const
{
    double total = 0.0;
    for (const auto &[k, v] : args) {
        if (k == key)
            total += v;
    }
    return total;
}

double
Tracer::selfCpuMs(std::size_t index) const
{
    double children = 0.0;
    for (const Record &r : records_) {
        if (r.parent == index)
            children += r.cpuMs();
    }
    return records_[index].cpuMs() - children;
}

void
Tracer::writeChromeJson(const std::string &path) const
{
    std::ofstream out(path);
    JsonWriter w(out, 0);
    w.beginObject();
    w.field("displayTimeUnit", "ms");
    w.key("traceEvents");
    w.beginArray();
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        const double ts =
            std::chrono::duration<double, std::micro>(r.start - origin_)
                .count();
        w.beginObject();
        w.field("name", r.name);
        w.field("cat", r.name.substr(0, r.name.find('.')));
        w.field("ph", "X");
        w.field("ts", ts);
        w.field("dur", r.wallMs() * 1e3);
        w.field("pid", 1);
        w.field("tid", 1);
        w.key("args");
        w.beginObject();
        w.field("span", static_cast<std::uint64_t>(i));
        if (r.parent != kNoParent)
            w.field("parent", static_cast<std::uint64_t>(r.parent));
        w.field("request", r.request);
        w.field("cpu_ms", r.cpuMs());
        for (const auto &[k, v] : r.args)
            w.field(k, v);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    out << "\n";
}

void
Tracer::printSelfTimes(std::ostream &os) const
{
    struct Row
    {
        std::uint64_t count = 0;
        double total = 0.0;
        double self = 0.0;
    };
    std::map<std::string, Row> layers;
    std::map<std::string, Row> names;
    double all_self = 0.0;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        const double self = selfCpuMs(i);
        all_self += self;
        for (Row *row : {&layers[r.name.substr(0, r.name.find('.'))],
                         &names[r.name]}) {
            ++row->count;
            row->total += r.cpuMs();
            row->self += self;
        }
    }
    const auto print = [&](const char *what,
                           const std::map<std::string, Row> &rows) {
        TextTable table;
        table.header(
            {what, "spans", "cpu_total_ms", "cpu_self_ms", "self_%"});
        for (const auto &[name, row] : rows) {
            table.row({name, std::to_string(row.count),
                       TextTable::num(row.total, 2),
                       TextTable::num(row.self, 2),
                       TextTable::num(all_self > 0.0
                                          ? 100.0 * row.self / all_self
                                          : 0.0,
                                      1)});
        }
        table.print(os);
    };
    print("layer", layers);
    os << "\n";
    print("span", names);
}

} // namespace graphr::bench
