#include "job/queries.h"

#include <map>

namespace hybridndp::job {

using exec::AggSpec;
using exec::AggFn;
using exec::CmpOp;
using exec::Expr;
using hybrid::JoinEdge;
using hybrid::Query;
using hybrid::TableRef;

namespace {

/// Small builder DSL for query definitions.
struct QB {
  Query q;

  void T(const char* alias, const char* table, Expr::Ptr pred = nullptr) {
    q.tables.push_back(TableRef{table, alias, std::move(pred)});
  }
  void J(const char* a, const char* ac, const char* b, const char* bc) {
    q.joins.push_back(JoinEdge{a, ac, b, bc});
  }
  void Min(const char* col, const char* out) {
    q.has_agg = true;
    q.aggs.push_back(AggSpec{AggFn::kMin, col, out});
  }
};

Expr::Ptr Eq(const char* col, const char* v) {
  return Expr::CmpStr(col, CmpOp::kEq, v);
}
Expr::Ptr Like(const char* col, const char* pat) {
  return Expr::Like(col, pat);
}
Expr::Ptr NotLike(const char* col, const char* pat) {
  return Expr::Like(col, pat, /*negated=*/true);
}
Expr::Ptr AndE(std::vector<Expr::Ptr> v) { return Expr::And(std::move(v)); }
Expr::Ptr OrE(std::vector<Expr::Ptr> v) { return Expr::Or(std::move(v)); }

/// Variant index 0..5.
int VI(char v) { return v - 'a'; }

const char* InfoKind(char v) {
  static const char* kInfos[] = {"top 250 rank", "bottom 10 rank", "rating",
                                 "votes", "genres", "budget"};
  return kInfos[VI(v) % 6];
}
const char* KeywordPick(char v) {
  static const char* kKw[] = {"sequel",   "superhero", "murder",
                              "violence", "revenge",   "martial-arts"};
  return kKw[VI(v) % 6];
}
const char* GenrePick(char v) {
  static const char* kGenres[] = {"Drama", "Horror", "Comedy",
                                  "Action", "Thriller", "Sci-Fi"};
  return kGenres[VI(v) % 6];
}
const char* CountryCodePick(char v) {
  static const char* kCodes[] = {"[us]", "[de]", "[gb]", "[fr]", "[jp]",
                                 "[it]"};
  return kCodes[VI(v) % 6];
}
const char* RolePick(char v) {
  // Q8c/Q8d of the paper use 'writer' / 'costume designer'.
  static const char* kRoles[] = {"actor", "actress", "writer",
                                 "costume designer", "producer", "director"};
  return kRoles[VI(v) % 6];
}
int YearLo(char v) { return 1990 + VI(v) * 5; }

// ---- group builders -------------------------------------------------------

void G1(QB& b, char v) {
  // Paper Listing 1 (JOB Q1).
  b.T("ct", "company_type", Eq("ct.kind", "production companies"));
  b.T("it", "info_type", Eq("it.info", InfoKind(v)));
  b.T("mi_idx", "movie_info_idx");
  b.T("t", "title");
  b.T("mc", "movie_companies",
      v == 'd' ? AndE({NotLike("mc.note", "%(as Metro-Goldwyn-Mayer Pictures)%"),
                       Like("mc.note", "%(co-production)%")})
               : AndE({NotLike("mc.note", "%(as Metro-Goldwyn-Mayer Pictures)%"),
                       OrE({Like("mc.note", "%(co-production)%"),
                            Like("mc.note", "%(presents)%")})}));
  b.J("ct", "id", "mc", "company_type_id");
  b.J("t", "id", "mc", "movie_id");
  b.J("t", "id", "mi_idx", "movie_id");
  b.J("mc", "movie_id", "mi_idx", "movie_id");
  b.J("it", "id", "mi_idx", "info_type_id");
  b.Min("mc.note", "production_note");
  b.Min("t.title", "movie_title");
  b.Min("t.production_year", "movie_year");
}

void G2(QB& b, char v) {
  b.T("cn", "company_name", Eq("cn.country_code", CountryCodePick(v)));
  b.T("k", "keyword", Eq("k.keyword", "character-name-in-title"));
  b.T("mc", "movie_companies");
  b.T("mk", "movie_keyword");
  b.T("t", "title");
  b.J("cn", "id", "mc", "company_id");
  b.J("mc", "movie_id", "t", "id");
  b.J("t", "id", "mk", "movie_id");
  b.J("mk", "movie_id", "mc", "movie_id");
  b.J("k", "id", "mk", "keyword_id");
  b.Min("t.title", "movie_title");
}

void G3(QB& b, char v) {
  b.T("k", "keyword", Like("k.keyword", "%sequel%"));
  b.T("mi", "movie_info", Eq("mi.info", GenrePick(v)));
  b.T("mk", "movie_keyword");
  b.T("t", "title",
      Expr::CmpInt("t.production_year", CmpOp::kGt, 2000 + VI(v) * 5));
  b.J("t", "id", "mi", "movie_id");
  b.J("t", "id", "mk", "movie_id");
  b.J("mk", "movie_id", "mi", "movie_id");
  b.J("k", "id", "mk", "keyword_id");
  b.Min("t.title", "movie_title");
}

void G4(QB& b, char v) {
  b.T("it", "info_type", Eq("it.info", "rating"));
  b.T("k", "keyword", Like("k.keyword", "%sequel%"));
  b.T("mi_idx", "movie_info_idx",
      Expr::CmpStr("mi_idx.info", CmpOp::kGt, std::to_string(5 + VI(v))));
  b.T("mk", "movie_keyword");
  b.T("t", "title",
      Expr::CmpInt("t.production_year", CmpOp::kGt, 2005));
  b.J("t", "id", "mi_idx", "movie_id");
  b.J("t", "id", "mk", "movie_id");
  b.J("mk", "movie_id", "mi_idx", "movie_id");
  b.J("k", "id", "mk", "keyword_id");
  b.J("it", "id", "mi_idx", "info_type_id");
  b.Min("mi_idx.info", "rating");
  b.Min("t.title", "movie_title");
}

void G5(QB& b, char v) {
  b.T("ct", "company_type", Eq("ct.kind", "production companies"));
  b.T("it", "info_type");
  b.T("mc", "movie_companies",
      v == 'a' ? Like("mc.note", "%(theatrical)%")
               : Like("mc.note", "%(VHS)%"));
  b.T("mi", "movie_info",
      Expr::InStr("mi.info", {GenrePick(v), "Sweden", "Germany", "USA"}));
  b.T("t", "title",
      Expr::CmpInt("t.production_year", CmpOp::kGt, YearLo(v)));
  b.J("t", "id", "mi", "movie_id");
  b.J("t", "id", "mc", "movie_id");
  b.J("mc", "movie_id", "mi", "movie_id");
  b.J("ct", "id", "mc", "company_type_id");
  b.J("it", "id", "mi", "info_type_id");
  b.Min("t.title", "typical_european_movie");
}

void G6(QB& b, char v) {
  b.T("ci", "cast_info");
  b.T("k", "keyword", Eq("k.keyword", KeywordPick(v)));
  b.T("mk", "movie_keyword");
  b.T("n", "name",
      VI(v) % 2 == 0 ? Like("n.name", "B%") : Like("n.name", "%Tim%"));
  b.T("t", "title",
      Expr::CmpInt("t.production_year", CmpOp::kGt, 1995 + VI(v) * 4));
  b.J("k", "id", "mk", "keyword_id");
  b.J("t", "id", "mk", "movie_id");
  b.J("t", "id", "ci", "movie_id");
  b.J("ci", "movie_id", "mk", "movie_id");
  b.J("n", "id", "ci", "person_id");
  b.Min("k.keyword", "movie_keyword");
  b.Min("n.name", "actor_name");
  b.Min("t.title", "hero_movie");
}

void G7(QB& b, char v) {
  b.T("an", "aka_name", Like("an.name", "%a%"));
  b.T("it", "info_type", Eq("it.info", "mini biography"));
  b.T("lt", "link_type", Eq("lt.link", VI(v) == 0 ? "features" : "follows"));
  b.T("ml", "movie_link");
  b.T("n", "name",
      AndE({Like("n.name", VI(v) == 2 ? "X%" : "B%"), Eq("n.gender", "m")}));
  b.T("pi", "person_info", Eq("pi.info", "Volker Boehm"));
  b.T("t", "title",
      Expr::Between("t.production_year", 1980, 1995 + VI(v) * 8));
  b.J("n", "id", "an", "person_id");
  b.J("n", "id", "pi", "person_id");
  b.J("it", "id", "pi", "info_type_id");
  b.J("t", "id", "ml", "linked_movie_id");
  b.J("lt", "id", "ml", "link_type_id");
  b.Min("n.name", "of_person");
  b.Min("t.title", "biography_movie");
  // Connect persons to movies through cast_info is absent in JOB q7; the
  // original links via ml.linked_movie_id = t.id only. Keep graph connected:
  b.T("ci", "cast_info");
  b.J("n", "id", "ci", "person_id");
  b.J("t", "id", "ci", "movie_id");
}

void G8(QB& b, char v) {
  // Paper Listing 3 (JOB Q8): 7 tables; 8c filters rt.role = 'writer',
  // 8d 'costume designer'.
  b.T("a1", "aka_name");
  b.T("ci", "cast_info", Like("ci.note", "%(voice%"));
  b.T("cn", "company_name", Eq("cn.country_code", "[us]"));
  b.T("mc", "movie_companies");
  b.T("n1", "name");
  b.T("rt", "role_type", Eq("rt.role", RolePick(v)));
  b.T("t", "title");
  b.J("a1", "person_id", "n1", "id");
  b.J("n1", "id", "ci", "person_id");
  b.J("ci", "movie_id", "t", "id");
  b.J("t", "id", "mc", "movie_id");
  b.J("mc", "company_id", "cn", "id");
  b.J("ci", "role_id", "rt", "id");
  b.Min("a1.name", "writer_pseudo_name");
  b.Min("t.title", "movie_title");
}

void G9(QB& b, char v) {
  b.T("an", "aka_name");
  b.T("ci", "cast_info",
      Expr::InStr("ci.note", {"(voice)", "(voice) (uncredited)",
                              "(voice: English version)"}));
  b.T("cn", "company_name", Eq("cn.country_code", CountryCodePick(v)));
  b.T("mc", "movie_companies", Like("mc.note", "%(USA)%"));
  b.T("n", "name", Eq("n.gender", VI(v) % 2 == 0 ? "f" : "m"));
  b.T("rt", "role_type", Eq("rt.role", VI(v) < 2 ? "actress" : "actor"));
  b.T("t", "title");
  b.J("ci", "movie_id", "t", "id");
  b.J("t", "id", "mc", "movie_id");
  b.J("ci", "movie_id", "mc", "movie_id");
  b.J("mc", "company_id", "cn", "id");
  b.J("ci", "role_id", "rt", "id");
  b.J("n", "id", "ci", "person_id");
  b.J("an", "person_id", "n", "id");
  b.Min("an.name", "alternative_name");
  b.Min("t.title", "movie");
}

void G10(QB& b, char v) {
  b.T("chn", "char_name");
  b.T("ci", "cast_info", Like("ci.note", "%(producer)%"));
  b.T("cn", "company_name", Eq("cn.country_code", CountryCodePick(v)));
  b.T("ct", "company_type");
  b.T("mc", "movie_companies");
  b.T("rt", "role_type");
  b.T("t", "title",
      Expr::CmpInt("t.production_year", CmpOp::kGt, YearLo(v)));
  b.J("t", "id", "mc", "movie_id");
  b.J("t", "id", "ci", "movie_id");
  b.J("ci", "movie_id", "mc", "movie_id");
  b.J("mc", "company_type_id", "ct", "id");
  b.J("mc", "company_id", "cn", "id");
  b.J("ci", "role_id", "rt", "id");
  b.J("chn", "id", "ci", "person_role_id");
  b.Min("chn.name", "character");
  b.Min("t.title", "movie");
}

void G11(QB& b, char v) {
  b.T("cn", "company_name",
      AndE({Eq("cn.country_code", "[us]"), Like("cn.name", "%Film%")}));
  b.T("ct", "company_type", Eq("ct.kind", "production companies"));
  b.T("k", "keyword", Eq("k.keyword", KeywordPick(v)));
  b.T("lt", "link_type", Like("lt.link", "%follow%"));
  b.T("mc", "movie_companies");
  b.T("mk", "movie_keyword");
  b.T("ml", "movie_link");
  b.T("t", "title",
      Expr::Between("t.production_year", 1950, 2000 + VI(v) * 5));
  b.J("t", "id", "ml", "movie_id");
  b.J("t", "id", "mk", "movie_id");
  b.J("t", "id", "mc", "movie_id");
  b.J("mk", "movie_id", "ml", "movie_id");
  b.J("mk", "movie_id", "mc", "movie_id");
  b.J("k", "id", "mk", "keyword_id");
  b.J("mc", "company_type_id", "ct", "id");
  b.J("mc", "company_id", "cn", "id");
  b.J("lt", "id", "ml", "link_type_id");
  b.Min("cn.name", "from_company");
  b.Min("lt.link", "movie_link_type");
  b.Min("t.title", "sequel_movie");
}

void G12(QB& b, char v) {
  b.T("cn", "company_name", Eq("cn.country_code", "[us]"));
  b.T("ct", "company_type", Eq("ct.kind", "production companies"));
  b.T("it1", "info_type", Eq("it1.info", "genres"));
  b.T("it2", "info_type", Eq("it2.info", "rating"));
  b.T("mc", "movie_companies");
  b.T("mi", "movie_info", Eq("mi.info", GenrePick(v)));
  b.T("mi_idx", "movie_info_idx",
      Expr::CmpStr("mi_idx.info", CmpOp::kGt, std::to_string(4 + VI(v))));
  b.T("t", "title",
      Expr::Between("t.production_year", 2000, 2010 + VI(v) * 3));
  b.J("t", "id", "mi", "movie_id");
  b.J("t", "id", "mi_idx", "movie_id");
  b.J("mi", "info_type_id", "it1", "id");
  b.J("mi_idx", "info_type_id", "it2", "id");
  b.J("t", "id", "mc", "movie_id");
  b.J("mc", "movie_id", "mi", "movie_id");
  b.J("mc", "movie_id", "mi_idx", "movie_id");
  b.J("mc", "company_type_id", "ct", "id");
  b.J("mc", "company_id", "cn", "id");
  b.Min("cn.name", "movie_company");
  b.Min("mi_idx.info", "rating");
  b.Min("t.title", "drama_horror_movie");
}

void G13(QB& b, char v) {
  b.T("cn", "company_name", Eq("cn.country_code", CountryCodePick(v)));
  b.T("ct", "company_type", Eq("ct.kind", "production companies"));
  b.T("it1", "info_type", Eq("it1.info", "rating"));
  b.T("it2", "info_type", Eq("it2.info", "release dates"));
  b.T("kt", "kind_type", Eq("kt.kind", "movie"));
  b.T("mc", "movie_companies");
  b.T("mi", "movie_info");
  b.T("mi_idx", "movie_info_idx");
  b.T("t", "title");
  b.J("mi", "movie_id", "t", "id");
  b.J("it2", "id", "mi", "info_type_id");
  b.J("kt", "id", "t", "kind_id");
  b.J("mc", "movie_id", "t", "id");
  b.J("cn", "id", "mc", "company_id");
  b.J("ct", "id", "mc", "company_type_id");
  b.J("mi_idx", "movie_id", "t", "id");
  b.J("it1", "id", "mi_idx", "info_type_id");
  b.J("mi", "movie_id", "mi_idx", "movie_id");
  b.J("mi", "movie_id", "mc", "movie_id");
  b.Min("mi.info", "release_date");
  b.Min("mi_idx.info", "rating");
  b.Min("t.title", "german_movie");
}

void G14(QB& b, char v) {
  b.T("it1", "info_type", Eq("it1.info", "countries"));
  b.T("it2", "info_type", Eq("it2.info", "rating"));
  b.T("k", "keyword",
      Expr::InStr("k.keyword", {"murder", "blood", "gore", KeywordPick(v)}));
  b.T("kt", "kind_type", Eq("kt.kind", "movie"));
  b.T("mi", "movie_info",
      Expr::InStr("mi.info", {"USA", "Sweden", "Germany", "Denmark"}));
  b.T("mi_idx", "movie_info_idx",
      Expr::CmpStr("mi_idx.info", CmpOp::kLt, std::to_string(6 + VI(v))));
  b.T("mk", "movie_keyword");
  b.T("t", "title",
      Expr::CmpInt("t.production_year", CmpOp::kGt, YearLo(v)));
  b.J("t", "id", "mi", "movie_id");
  b.J("t", "id", "mk", "movie_id");
  b.J("t", "id", "mi_idx", "movie_id");
  b.J("t", "kind_id", "kt", "id");
  b.J("mk", "movie_id", "mi", "movie_id");
  b.J("mk", "movie_id", "mi_idx", "movie_id");
  b.J("k", "id", "mk", "keyword_id");
  b.J("it1", "id", "mi", "info_type_id");
  b.J("it2", "id", "mi_idx", "info_type_id");
  b.Min("mi_idx.info", "rating");
  b.Min("t.title", "northern_dark_movie");
}

void G15(QB& b, char v) {
  b.T("at", "aka_title");
  b.T("cn", "company_name", Eq("cn.country_code", "[us]"));
  b.T("ct", "company_type");
  b.T("it1", "info_type", Eq("it1.info", "release dates"));
  b.T("k", "keyword", Like("k.keyword", "%second%"));
  b.T("mc", "movie_companies", Like("mc.note", "%(worldwide)%"));
  b.T("mi", "movie_info", Like("mi.info", "USA:%"));
  b.T("mk", "movie_keyword");
  b.T("t", "title",
      Expr::CmpInt("t.production_year", CmpOp::kGt, 1995 + VI(v) * 5));
  b.J("t", "id", "at", "movie_id");
  b.J("t", "id", "mi", "movie_id");
  b.J("t", "id", "mk", "movie_id");
  b.J("t", "id", "mc", "movie_id");
  b.J("mk", "movie_id", "mi", "movie_id");
  b.J("mc", "movie_id", "mi", "movie_id");
  b.J("k", "id", "mk", "keyword_id");
  b.J("it1", "id", "mi", "info_type_id");
  b.J("cn", "id", "mc", "company_id");
  b.J("ct", "id", "mc", "company_type_id");
  b.Min("mi.info", "release_date");
  b.Min("t.title", "internet_movie");
}

void G16(QB& b, char v) {
  b.T("an", "aka_name");
  b.T("ci", "cast_info");
  b.T("cn", "company_name", Eq("cn.country_code", CountryCodePick(v)));
  b.T("k", "keyword", Eq("k.keyword", "character-name-in-title"));
  b.T("mc", "movie_companies");
  b.T("mk", "movie_keyword");
  b.T("n", "name");
  b.T("t", "title",
      Expr::Between("t.production_year", 1990, 2000 + VI(v) * 6));
  b.J("an", "person_id", "n", "id");
  b.J("n", "id", "ci", "person_id");
  b.J("ci", "movie_id", "t", "id");
  b.J("t", "id", "mk", "movie_id");
  b.J("mk", "keyword_id", "k", "id");
  b.J("t", "id", "mc", "movie_id");
  b.J("mc", "company_id", "cn", "id");
  b.J("ci", "movie_id", "mc", "movie_id");
  b.J("ci", "movie_id", "mk", "movie_id");
  b.Min("an.name", "cool_actor_pseudonym");
  b.Min("t.title", "series_named_after_char");
}

void G17(QB& b, char v) {
  // Paper Exp. 1 uses 17b.
  static const char* kPatterns[] = {"B%", "%Tim%", "X%", "%us", "%a%", "C%"};
  b.T("ci", "cast_info");
  b.T("cn", "company_name", Eq("cn.country_code", "[us]"));
  b.T("k", "keyword", Eq("k.keyword", "character-name-in-title"));
  b.T("mc", "movie_companies");
  b.T("mk", "movie_keyword");
  b.T("n", "name", Like("n.name", kPatterns[VI(v) % 6]));
  b.T("t", "title");
  b.J("n", "id", "ci", "person_id");
  b.J("ci", "movie_id", "t", "id");
  b.J("t", "id", "mk", "movie_id");
  b.J("mk", "keyword_id", "k", "id");
  b.J("t", "id", "mc", "movie_id");
  b.J("mc", "company_id", "cn", "id");
  b.J("ci", "movie_id", "mc", "movie_id");
  b.J("ci", "movie_id", "mk", "movie_id");
  b.Min("n.name", "member_in_charnamed_movie");
}

void G18(QB& b, char v) {
  b.T("ci", "cast_info",
      Expr::InStr("ci.note", {"(producer)", "(executive producer)"}));
  b.T("it1", "info_type", Eq("it1.info", "budget"));
  b.T("it2", "info_type", Eq("it2.info", "votes"));
  b.T("mi", "movie_info");
  b.T("mi_idx", "movie_info_idx");
  b.T("n", "name",
      AndE({Eq("n.gender", "m"), Like("n.name", VI(v) == 0 ? "%Tim%" : "B%")}));
  b.T("t", "title");
  b.J("t", "id", "mi", "movie_id");
  b.J("t", "id", "mi_idx", "movie_id");
  b.J("t", "id", "ci", "movie_id");
  b.J("ci", "movie_id", "mi", "movie_id");
  b.J("mi", "movie_id", "mi_idx", "movie_id");
  b.J("n", "id", "ci", "person_id");
  b.J("it1", "id", "mi", "info_type_id");
  b.J("it2", "id", "mi_idx", "info_type_id");
  b.Min("mi.info", "movie_budget");
  b.Min("mi_idx.info", "movie_votes");
  b.Min("t.title", "movie_title");
}

void G19(QB& b, char v) {
  b.T("an", "aka_name");
  b.T("ci", "cast_info",
      Expr::InStr("ci.note", {"(voice)", "(voice: English version)"}));
  b.T("cn", "company_name", Eq("cn.country_code", "[us]"));
  b.T("it", "info_type", Eq("it.info", "release dates"));
  b.T("mc", "movie_companies");
  b.T("mi", "movie_info", Like("mi.info", "USA:%"));
  b.T("n", "name", Eq("n.gender", "f"));
  b.T("rt", "role_type", Eq("rt.role", "actress"));
  b.T("t", "title",
      Expr::CmpInt("t.production_year", CmpOp::kGt, 1995 + VI(v) * 5));
  b.J("t", "id", "mi", "movie_id");
  b.J("t", "id", "mc", "movie_id");
  b.J("t", "id", "ci", "movie_id");
  b.J("mc", "movie_id", "ci", "movie_id");
  b.J("mi", "movie_id", "ci", "movie_id");
  b.J("cn", "id", "mc", "company_id");
  b.J("it", "id", "mi", "info_type_id");
  b.J("n", "id", "ci", "person_id");
  b.J("rt", "id", "ci", "role_id");
  b.J("n", "id", "an", "person_id");
  b.Min("n.name", "voicing_actress");
  b.Min("t.title", "voiced_movie");
}

void G20(QB& b, char v) {
  b.T("cct1", "comp_cast_type", Eq("cct1.kind", "cast"));
  b.T("cct2", "comp_cast_type", Like("cct2.kind", "%complete%"));
  b.T("chn", "char_name", Like("chn.name", VI(v) == 0 ? "%Queen%" : "%a%"));
  b.T("ci", "cast_info");
  b.T("cc", "complete_cast");
  b.T("k", "keyword", Eq("k.keyword", KeywordPick(v)));
  b.T("kt", "kind_type", Eq("kt.kind", "movie"));
  b.T("mk", "movie_keyword");
  b.T("n", "name");
  b.T("t", "title",
      Expr::CmpInt("t.production_year", CmpOp::kGt, 2000));
  b.J("kt", "id", "t", "kind_id");
  b.J("t", "id", "mk", "movie_id");
  b.J("t", "id", "ci", "movie_id");
  b.J("t", "id", "cc", "movie_id");
  b.J("mk", "movie_id", "ci", "movie_id");
  b.J("ci", "person_role_id", "chn", "id");
  b.J("n", "id", "ci", "person_id");
  b.J("k", "id", "mk", "keyword_id");
  b.J("cct1", "id", "cc", "subject_id");
  b.J("cct2", "id", "cc", "status_id");
  b.Min("t.title", "complete_hero_movie");
}

void G21(QB& b, char v) {
  b.T("cn", "company_name",
      AndE({Eq("cn.country_code", CountryCodePick(v)),
            Like("cn.name", "%Film%")}));
  b.T("ct", "company_type", Eq("ct.kind", "production companies"));
  b.T("k", "keyword", Eq("k.keyword", KeywordPick(v)));
  b.T("lt", "link_type", Like("lt.link", "%follow%"));
  b.T("mc", "movie_companies");
  b.T("mi", "movie_info", Expr::InStr("mi.info", {"Sweden", "Germany", "USA"}));
  b.T("mk", "movie_keyword");
  b.T("ml", "movie_link");
  b.T("t", "title");
  b.J("lt", "id", "ml", "link_type_id");
  b.J("ml", "movie_id", "t", "id");
  b.J("t", "id", "mk", "movie_id");
  b.J("mk", "keyword_id", "k", "id");
  b.J("t", "id", "mc", "movie_id");
  b.J("mc", "company_type_id", "ct", "id");
  b.J("mc", "company_id", "cn", "id");
  b.J("mi", "movie_id", "t", "id");
  b.J("ml", "movie_id", "mk", "movie_id");
  b.Min("cn.name", "company_name");
  b.Min("lt.link", "link_type");
  b.Min("t.title", "western_follow_up");
}

void G22(QB& b, char v) {
  b.T("cn", "company_name", NotLike("cn.country_code", "%us%"));
  b.T("ct", "company_type");
  b.T("it1", "info_type", Eq("it1.info", "countries"));
  b.T("it2", "info_type", Eq("it2.info", "rating"));
  b.T("k", "keyword",
      Expr::InStr("k.keyword", {"murder", "blood", "violence", KeywordPick(v)}));
  b.T("kt", "kind_type",
      Expr::InStr("kt.kind", {"movie", "episode"}));
  b.T("mc", "movie_companies", NotLike("mc.note", "%(USA)%"));
  b.T("mi", "movie_info",
      Expr::InStr("mi.info", {"Germany", "Sweden", "Italy", "Japan"}));
  b.T("mi_idx", "movie_info_idx",
      Expr::CmpStr("mi_idx.info", CmpOp::kLt, std::to_string(7 + VI(v) % 3)));
  b.T("mk", "movie_keyword");
  b.T("t", "title",
      Expr::CmpInt("t.production_year", CmpOp::kGt, 2005 + VI(v)));
  b.J("t", "id", "mi", "movie_id");
  b.J("t", "id", "mk", "movie_id");
  b.J("t", "id", "mi_idx", "movie_id");
  b.J("t", "id", "mc", "movie_id");
  b.J("t", "kind_id", "kt", "id");
  b.J("mk", "movie_id", "mi", "movie_id");
  b.J("mk", "movie_id", "mi_idx", "movie_id");
  b.J("mk", "movie_id", "mc", "movie_id");
  b.J("k", "id", "mk", "keyword_id");
  b.J("it1", "id", "mi", "info_type_id");
  b.J("it2", "id", "mi_idx", "info_type_id");
  b.J("ct", "id", "mc", "company_type_id");
  b.J("cn", "id", "mc", "company_id");
  b.Min("cn.name", "movie_company");
  b.Min("mi_idx.info", "rating");
  b.Min("t.title", "western_violent_movie");
}

void G23(QB& b, char v) {
  b.T("cc", "complete_cast");
  b.T("cct1", "comp_cast_type", Eq("cct1.kind", "complete+verified"));
  b.T("cn", "company_name", Eq("cn.country_code", "[us]"));
  b.T("ct", "company_type");
  b.T("it1", "info_type", Eq("it1.info", "release dates"));
  b.T("kt", "kind_type", Eq("kt.kind", VI(v) == 0 ? "movie" : "tv movie"));
  b.T("mc", "movie_companies");
  b.T("mi", "movie_info", Like("mi.info", "USA:%"));
  b.T("t", "title",
      Expr::CmpInt("t.production_year", CmpOp::kGt, 1990 + VI(v) * 5));
  b.J("kt", "id", "t", "kind_id");
  b.J("t", "id", "mi", "movie_id");
  b.J("t", "id", "mc", "movie_id");
  b.J("t", "id", "cc", "movie_id");
  b.J("mc", "movie_id", "mi", "movie_id");
  b.J("ct", "id", "mc", "company_type_id");
  b.J("cn", "id", "mc", "company_id");
  b.J("it1", "id", "mi", "info_type_id");
  b.J("cct1", "id", "cc", "status_id");
  b.Min("kt.kind", "movie_kind");
  b.Min("t.title", "complete_us_internet_movie");
}

void G24(QB& b, char v) {
  b.T("an", "aka_name");
  b.T("chn", "char_name");
  b.T("ci", "cast_info",
      Expr::InStr("ci.note", {"(voice)", "(voice: English version)"}));
  b.T("cn", "company_name", Eq("cn.country_code", "[us]"));
  b.T("it", "info_type", Eq("it.info", "release dates"));
  b.T("k", "keyword",
      Expr::InStr("k.keyword",
                  {"hero", "martial-arts", "hand-to-hand-combat",
                   KeywordPick(v)}));
  b.T("mc", "movie_companies");
  b.T("mi", "movie_info", Like("mi.info", "USA:%"));
  b.T("mk", "movie_keyword");
  b.T("n", "name", Eq("n.gender", "f"));
  b.T("rt", "role_type", Eq("rt.role", "actress"));
  b.T("t", "title",
      Expr::CmpInt("t.production_year", CmpOp::kGt, 2005 + VI(v) * 3));
  b.J("t", "id", "mi", "movie_id");
  b.J("t", "id", "mc", "movie_id");
  b.J("t", "id", "ci", "movie_id");
  b.J("t", "id", "mk", "movie_id");
  b.J("mc", "movie_id", "ci", "movie_id");
  b.J("mi", "movie_id", "ci", "movie_id");
  b.J("mk", "movie_id", "ci", "movie_id");
  b.J("cn", "id", "mc", "company_id");
  b.J("it", "id", "mi", "info_type_id");
  b.J("n", "id", "ci", "person_id");
  b.J("rt", "id", "ci", "role_id");
  b.J("n", "id", "an", "person_id");
  b.J("chn", "id", "ci", "person_role_id");
  b.J("k", "id", "mk", "keyword_id");
  b.Min("chn.name", "voiced_char_name");
  b.Min("n.name", "voicing_actress");
  b.Min("t.title", "voiced_action_movie");
}

void G25(QB& b, char v) {
  b.T("ci", "cast_info",
      Expr::InStr("ci.note", {"(writer)", "(story)", "(screenplay)"}));
  b.T("it1", "info_type", Eq("it1.info", "genres"));
  b.T("it2", "info_type", Eq("it2.info", "votes"));
  b.T("k", "keyword",
      Expr::InStr("k.keyword", {"murder", "blood", "gore", KeywordPick(v)}));
  b.T("mi", "movie_info", Eq("mi.info", "Horror"));
  b.T("mi_idx", "movie_info_idx");
  b.T("mk", "movie_keyword");
  b.T("n", "name", Eq("n.gender", "m"));
  b.T("t", "title");
  b.J("t", "id", "mi", "movie_id");
  b.J("t", "id", "mi_idx", "movie_id");
  b.J("t", "id", "ci", "movie_id");
  b.J("t", "id", "mk", "movie_id");
  b.J("ci", "movie_id", "mi", "movie_id");
  b.J("ci", "movie_id", "mi_idx", "movie_id");
  b.J("ci", "movie_id", "mk", "movie_id");
  b.J("n", "id", "ci", "person_id");
  b.J("it1", "id", "mi", "info_type_id");
  b.J("it2", "id", "mi_idx", "info_type_id");
  b.J("k", "id", "mk", "keyword_id");
  b.Min("mi.info", "movie_budget");
  b.Min("mi_idx.info", "movie_votes");
  b.Min("n.name", "male_writer");
  b.Min("t.title", "violent_movie_title");
}

void G26(QB& b, char v) {
  b.T("cc", "complete_cast");
  b.T("cct1", "comp_cast_type", Eq("cct1.kind", "cast"));
  b.T("chn", "char_name", Like("chn.name", "%man%"));
  b.T("ci", "cast_info");
  b.T("it2", "info_type", Eq("it2.info", "rating"));
  b.T("k", "keyword",
      Expr::InStr("k.keyword",
                  {"superhero", "marvel-cinematic-universe", "web",
                   KeywordPick(v)}));
  b.T("kt", "kind_type", Eq("kt.kind", "movie"));
  b.T("mi_idx", "movie_info_idx",
      Expr::CmpStr("mi_idx.info", CmpOp::kGt, std::to_string(6 + VI(v))));
  b.T("mk", "movie_keyword");
  b.T("n", "name");
  b.T("t", "title",
      Expr::CmpInt("t.production_year", CmpOp::kGt, 2000 + VI(v) * 4));
  b.J("kt", "id", "t", "kind_id");
  b.J("t", "id", "mk", "movie_id");
  b.J("t", "id", "ci", "movie_id");
  b.J("t", "id", "cc", "movie_id");
  b.J("t", "id", "mi_idx", "movie_id");
  b.J("mk", "movie_id", "ci", "movie_id");
  b.J("ci", "person_role_id", "chn", "id");
  b.J("n", "id", "ci", "person_id");
  b.J("k", "id", "mk", "keyword_id");
  b.J("cct1", "id", "cc", "subject_id");
  b.J("it2", "id", "mi_idx", "info_type_id");
  b.Min("chn.name", "character_name");
  b.Min("mi_idx.info", "rating");
  b.Min("t.title", "complete_hero_movie");
}

void G27(QB& b, char v) {
  b.T("cc", "complete_cast");
  b.T("cct1", "comp_cast_type",
      Expr::InStr("cct1.kind", {"cast", "crew"}));
  b.T("cct2", "comp_cast_type", Eq("cct2.kind", "complete"));
  b.T("cn", "company_name",
      AndE({Eq("cn.country_code", CountryCodePick(v)),
            Like("cn.name", "%Film%")}));
  b.T("ct", "company_type", Eq("ct.kind", "production companies"));
  b.T("k", "keyword", Eq("k.keyword", "sequel"));
  b.T("lt", "link_type", Like("lt.link", "%follow%"));
  b.T("mc", "movie_companies");
  b.T("mi", "movie_info", Expr::InStr("mi.info", {"Sweden", "Germany"}));
  b.T("mk", "movie_keyword");
  b.T("ml", "movie_link");
  b.T("t", "title",
      Expr::Between("t.production_year", 1950, 2000 + VI(v) * 6));
  b.J("lt", "id", "ml", "link_type_id");
  b.J("ml", "movie_id", "t", "id");
  b.J("t", "id", "mk", "movie_id");
  b.J("mk", "keyword_id", "k", "id");
  b.J("t", "id", "mc", "movie_id");
  b.J("mc", "company_type_id", "ct", "id");
  b.J("mc", "company_id", "cn", "id");
  b.J("mi", "movie_id", "t", "id");
  b.J("t", "id", "cc", "movie_id");
  b.J("cct1", "id", "cc", "subject_id");
  b.J("cct2", "id", "cc", "status_id");
  b.J("ml", "movie_id", "mk", "movie_id");
  b.Min("cn.name", "producing_company");
  b.Min("lt.link", "link_type");
  b.Min("t.title", "complete_western_sequel");
}

void G28(QB& b, char v) {
  b.T("cc", "complete_cast");
  b.T("cct1", "comp_cast_type", Eq("cct1.kind", "crew"));
  b.T("cct2", "comp_cast_type", Expr::CmpStr("cct2.kind", CmpOp::kNe, "complete+verified"));
  b.T("cn", "company_name", NotLike("cn.country_code", "%us%"));
  b.T("ct", "company_type");
  b.T("it1", "info_type", Eq("it1.info", "countries"));
  b.T("it2", "info_type", Eq("it2.info", "rating"));
  b.T("k", "keyword",
      Expr::InStr("k.keyword", {"murder", "violence", KeywordPick(v)}));
  b.T("kt", "kind_type", Expr::InStr("kt.kind", {"movie", "episode"}));
  b.T("mc", "movie_companies", NotLike("mc.note", "%(USA)%"));
  b.T("mi", "movie_info",
      Expr::InStr("mi.info", {"Germany", "Sweden", "Japan"}));
  b.T("mi_idx", "movie_info_idx",
      Expr::CmpStr("mi_idx.info", CmpOp::kLt, std::to_string(8 - VI(v))));
  b.T("mk", "movie_keyword");
  b.T("t", "title",
      Expr::CmpInt("t.production_year", CmpOp::kGt, 2000 + VI(v) * 2));
  b.J("t", "id", "mi", "movie_id");
  b.J("t", "id", "mk", "movie_id");
  b.J("t", "id", "mi_idx", "movie_id");
  b.J("t", "id", "mc", "movie_id");
  b.J("t", "id", "cc", "movie_id");
  b.J("t", "kind_id", "kt", "id");
  b.J("mk", "movie_id", "mi", "movie_id");
  b.J("mk", "movie_id", "mi_idx", "movie_id");
  b.J("mk", "movie_id", "mc", "movie_id");
  b.J("k", "id", "mk", "keyword_id");
  b.J("it1", "id", "mi", "info_type_id");
  b.J("it2", "id", "mi_idx", "info_type_id");
  b.J("ct", "id", "mc", "company_type_id");
  b.J("cn", "id", "mc", "company_id");
  b.J("cct1", "id", "cc", "subject_id");
  b.J("cct2", "id", "cc", "status_id");
  b.Min("cn.name", "movie_company");
  b.Min("mi_idx.info", "rating");
  b.Min("t.title", "complete_euro_dark_movie");
}

void G29(QB& b, char v) {
  b.T("an", "aka_name");
  b.T("cc", "complete_cast");
  b.T("cct1", "comp_cast_type", Eq("cct1.kind", "cast"));
  b.T("chn", "char_name", Eq("chn.name", VI(v) == 0 ? "Queen" : "Queen a"));
  b.T("ci", "cast_info", Expr::InStr("ci.note", {"(voice)"}));
  b.T("cn", "company_name", Eq("cn.country_code", "[us]"));
  b.T("it", "info_type", Eq("it.info", "release dates"));
  b.T("it3", "info_type", Eq("it3.info", "trivia"));
  b.T("k", "keyword", Eq("k.keyword", "computer"));
  b.T("mc", "movie_companies");
  b.T("mi", "movie_info", Like("mi.info", "USA:%"));
  b.T("mk", "movie_keyword");
  b.T("n", "name", Eq("n.gender", "f"));
  b.T("pi", "person_info");
  b.T("rt", "role_type", Eq("rt.role", "actress"));
  b.T("t", "title",
      Expr::Between("t.production_year", 2000, 2010 + VI(v) * 5));
  b.J("t", "id", "mi", "movie_id");
  b.J("t", "id", "mc", "movie_id");
  b.J("t", "id", "ci", "movie_id");
  b.J("t", "id", "mk", "movie_id");
  b.J("t", "id", "cc", "movie_id");
  b.J("mc", "movie_id", "ci", "movie_id");
  b.J("mi", "movie_id", "ci", "movie_id");
  b.J("cn", "id", "mc", "company_id");
  b.J("it", "id", "mi", "info_type_id");
  b.J("n", "id", "ci", "person_id");
  b.J("rt", "id", "ci", "role_id");
  b.J("n", "id", "an", "person_id");
  b.J("chn", "id", "ci", "person_role_id");
  b.J("n", "id", "pi", "person_id");
  b.J("it3", "id", "pi", "info_type_id");
  b.J("k", "id", "mk", "keyword_id");
  b.J("cct1", "id", "cc", "subject_id");
  b.Min("chn.name", "voiced_char");
  b.Min("n.name", "voicing_actress");
  b.Min("t.title", "voiced_animation");
}

void G30(QB& b, char v) {
  b.T("cc", "complete_cast");
  b.T("cct1", "comp_cast_type",
      Expr::InStr("cct1.kind", {"cast", "crew"}));
  b.T("cct2", "comp_cast_type", Eq("cct2.kind", "complete+verified"));
  b.T("ci", "cast_info",
      Expr::InStr("ci.note", {"(writer)", "(story)", "(screenplay)"}));
  b.T("it1", "info_type", Eq("it1.info", "genres"));
  b.T("it2", "info_type", Eq("it2.info", "votes"));
  b.T("k", "keyword",
      Expr::InStr("k.keyword", {"murder", "violence", "blood", KeywordPick(v)}));
  b.T("mi", "movie_info",
      Expr::InStr("mi.info", {"Horror", "Thriller", GenrePick(v)}));
  b.T("mi_idx", "movie_info_idx");
  b.T("mk", "movie_keyword");
  b.T("n", "name", Eq("n.gender", "m"));
  b.T("t", "title",
      Expr::CmpInt("t.production_year", CmpOp::kGt, 2000 + VI(v) * 3));
  b.J("t", "id", "mi", "movie_id");
  b.J("t", "id", "mi_idx", "movie_id");
  b.J("t", "id", "ci", "movie_id");
  b.J("t", "id", "mk", "movie_id");
  b.J("t", "id", "cc", "movie_id");
  b.J("ci", "movie_id", "mi", "movie_id");
  b.J("ci", "movie_id", "mi_idx", "movie_id");
  b.J("ci", "movie_id", "mk", "movie_id");
  b.J("n", "id", "ci", "person_id");
  b.J("it1", "id", "mi", "info_type_id");
  b.J("it2", "id", "mi_idx", "info_type_id");
  b.J("k", "id", "mk", "keyword_id");
  b.J("cct1", "id", "cc", "subject_id");
  b.J("cct2", "id", "cc", "status_id");
  b.Min("mi.info", "movie_budget");
  b.Min("mi_idx.info", "movie_votes");
  b.Min("n.name", "writer");
  b.Min("t.title", "complete_violent_movie");
}

void G31(QB& b, char v) {
  b.T("ci", "cast_info",
      Expr::InStr("ci.note", {"(writer)", "(story)", "(screenplay)"}));
  b.T("cn", "company_name", Like("cn.name", "%Warner%"));
  b.T("it1", "info_type", Eq("it1.info", "genres"));
  b.T("it2", "info_type", Eq("it2.info", "votes"));
  b.T("k", "keyword", Expr::InStr("k.keyword", {"murder", KeywordPick(v)}));
  b.T("mc", "movie_companies");
  b.T("mi", "movie_info", Expr::InStr("mi.info", {"Horror", "Action"}));
  b.T("mi_idx", "movie_info_idx");
  b.T("mk", "movie_keyword");
  b.T("n", "name", Eq("n.gender", "m"));
  b.T("t", "title");
  b.J("t", "id", "mi", "movie_id");
  b.J("t", "id", "mi_idx", "movie_id");
  b.J("t", "id", "ci", "movie_id");
  b.J("t", "id", "mk", "movie_id");
  b.J("t", "id", "mc", "movie_id");
  b.J("ci", "movie_id", "mi", "movie_id");
  b.J("ci", "movie_id", "mi_idx", "movie_id");
  b.J("ci", "movie_id", "mk", "movie_id");
  b.J("cn", "id", "mc", "company_id");
  b.J("n", "id", "ci", "person_id");
  b.J("it1", "id", "mi", "info_type_id");
  b.J("it2", "id", "mi_idx", "info_type_id");
  b.J("k", "id", "mk", "keyword_id");
  b.Min("mi.info", "movie_budget");
  b.Min("mi_idx.info", "movie_votes");
  b.Min("n.name", "writer");
  b.Min("t.title", "violent_liongate_movie");
}

void G32(QB& b, char v) {
  b.T("k", "keyword",
      Eq("k.keyword", VI(v) == 0 ? "character-name-in-title" : "sequel"));
  b.T("lt", "link_type");
  b.T("mk", "movie_keyword");
  b.T("ml", "movie_link");
  b.T("t1", "title");
  b.T("t2", "title");
  b.J("mk", "keyword_id", "k", "id");
  b.J("t1", "id", "mk", "movie_id");
  b.J("ml", "movie_id", "t1", "id");
  b.J("ml", "linked_movie_id", "t2", "id");
  b.J("lt", "id", "ml", "link_type_id");
  b.Min("lt.link", "link_type");
  b.Min("t1.title", "first_movie");
  b.Min("t2.title", "second_movie");
}

void G33(QB& b, char v) {
  b.T("cn1", "company_name", Eq("cn1.country_code", "[us]"));
  b.T("cn2", "company_name");
  b.T("it1", "info_type", Eq("it1.info", "rating"));
  b.T("it2", "info_type", Eq("it2.info", "rating"));
  b.T("kt1", "kind_type", Expr::InStr("kt1.kind", {"tv series", "episode"}));
  b.T("kt2", "kind_type", Expr::InStr("kt2.kind", {"tv series", "episode"}));
  b.T("lt", "link_type",
      Expr::InStr("lt.link", {"sequel", "follows", "followed by"}));
  b.T("mc1", "movie_companies");
  b.T("mc2", "movie_companies");
  b.T("mi_idx1", "movie_info_idx");
  b.T("mi_idx2", "movie_info_idx",
      Expr::CmpStr("mi_idx2.info", CmpOp::kLt, std::to_string(4 + VI(v))));
  b.T("ml", "movie_link");
  b.T("t1", "title");
  b.T("t2", "title",
      Expr::Between("t2.production_year", 2000, 2010 + VI(v) * 5));
  b.J("lt", "id", "ml", "link_type_id");
  b.J("t1", "id", "ml", "movie_id");
  b.J("t2", "id", "ml", "linked_movie_id");
  b.J("it1", "id", "mi_idx1", "info_type_id");
  b.J("t1", "id", "mi_idx1", "movie_id");
  b.J("kt1", "id", "t1", "kind_id");
  b.J("cn1", "id", "mc1", "company_id");
  b.J("t1", "id", "mc1", "movie_id");
  b.J("it2", "id", "mi_idx2", "info_type_id");
  b.J("t2", "id", "mi_idx2", "movie_id");
  b.J("kt2", "id", "t2", "kind_id");
  b.J("cn2", "id", "mc2", "company_id");
  b.J("t2", "id", "mc2", "movie_id");
  b.Min("cn1.name", "first_company");
  b.Min("cn2.name", "second_company");
  b.Min("mi_idx1.info", "first_rating");
  b.Min("mi_idx2.info", "second_rating");
  b.Min("t1.title", "first_movie");
  b.Min("t2.title", "second_movie");
}

using GroupFn = void (*)(QB&, char);

const std::map<int, std::pair<GroupFn, int>>& Groups() {
  // group -> (builder, variant count). Variant counts match the original
  // JOB distribution (113 queries across 33 groups).
  static const std::map<int, std::pair<GroupFn, int>> kGroups = {
      {1, {G1, 4}},   {2, {G2, 4}},   {3, {G3, 3}},   {4, {G4, 3}},
      {5, {G5, 3}},   {6, {G6, 6}},   {7, {G7, 3}},   {8, {G8, 4}},
      {9, {G9, 4}},   {10, {G10, 3}}, {11, {G11, 4}}, {12, {G12, 3}},
      {13, {G13, 4}}, {14, {G14, 3}}, {15, {G15, 4}}, {16, {G16, 4}},
      {17, {G17, 6}}, {18, {G18, 3}}, {19, {G19, 4}}, {20, {G20, 3}},
      {21, {G21, 3}}, {22, {G22, 4}}, {23, {G23, 3}}, {24, {G24, 2}},
      {25, {G25, 3}}, {26, {G26, 3}}, {27, {G27, 3}}, {28, {G28, 3}},
      {29, {G29, 3}}, {30, {G30, 3}}, {31, {G31, 3}}, {32, {G32, 2}},
      {33, {G33, 3}},
  };
  return kGroups;
}

}  // namespace

std::vector<JobQueryId> AllJobQueries() {
  std::vector<JobQueryId> out;
  for (const auto& [group, entry] : Groups()) {
    for (int i = 0; i < entry.second; ++i) {
      out.push_back(JobQueryId{group, static_cast<char>('a' + i)});
    }
  }
  return out;
}

Result<hybrid::Query> MakeJobQuery(const JobQueryId& id) {
  auto it = Groups().find(id.group);
  if (it == Groups().end()) {
    return Status::InvalidArgument("unknown JOB group " +
                                   std::to_string(id.group));
  }
  const int variants = it->second.second;
  if (id.variant < 'a' || id.variant >= 'a' + variants) {
    return Status::InvalidArgument("unknown JOB variant " + id.ToString());
  }
  QB builder;
  builder.q.name = "JOB " + id.ToString();
  it->second.first(builder, id.variant);
  return builder.q;
}

}  // namespace hybridndp::job
